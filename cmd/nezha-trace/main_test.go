package main

import (
	"bytes"
	"strings"
	"testing"

	"nezha/internal/trace"
)

func TestValidate(t *testing.T) {
	for _, c := range []struct {
		args []string
		what string
		n    int
		want string // "" = valid; else a substring of the error
	}{
		{what: "cpu", n: 10000},
		{what: "migration", n: 1},
		{args: []string{"fig2", "-n", "5"}, what: "cpu", n: 10000, want: `unexpected arguments ["fig2" "-n" "5"]`},
		{what: "cpu", n: 0, want: "-n 0: need at least 1 sample"},
		{what: "cpu", n: -5, want: "-n -5: need at least 1 sample"},
		{what: "disk", n: 10, want: `unknown -what "disk", want one of cpu, fig2,`},
		{what: "", n: 10, want: `unknown -what ""`},
	} {
		err := validate(c.args, c.what, c.n)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%+v: unexpected error %v", c, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%+v: error %v, want one containing %q", c, err, c.want)
		}
	}
}

// TestDatasetsWriteRows checks every -what writes its header and at
// least one row at the smallest valid -n.
func TestDatasetsWriteRows(t *testing.T) {
	for what, emit := range datasets {
		var b bytes.Buffer
		emit(&b, trace.NewRegion(42, 1), 1)
		if lines := strings.Count(b.String(), "\n"); lines < 2 {
			t.Errorf("-what %s -n 1 wrote %d lines, want a header and a row:\n%s", what, lines, b.String())
		}
	}
}
