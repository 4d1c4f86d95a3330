package main

import (
	"strings"
	"testing"
)

func TestValidate(t *testing.T) {
	for _, c := range []struct {
		args []string
		exp  string
		want string // "" = valid; else a substring of the error
	}{
		{exp: "all"},
		{exp: "fig9"},
		{exp: "tablea1"},
		{args: []string{"fig9", "-quick"}, exp: "all", want: `unexpected arguments ["fig9" "-quick"]`},
		{args: []string{"extra"}, exp: "fig9", want: `unexpected arguments ["extra"]`},
		{exp: "fig99", want: `unknown experiment "fig99"`},
		{exp: "", want: `unknown experiment ""`},
	} {
		err := validate(c.args, c.exp)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%+v: unexpected error %v", c, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%+v: error %v, want one containing %q", c, err, c.want)
		}
	}
}
