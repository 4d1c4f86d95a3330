package main

import (
	"flag"

	"example/internal/lib"
)

func main() {
	var cfg lib.Config
	flag.IntVar(&cfg.FromFlag, "n", 0, "")
	_ = lib.Settings{Planted: 1}
	lib.New(lib.Config{FromCmd: 1, Passed: cfg.Passed})
	lib.Use(lib.Spec{Sized: 1})
}
