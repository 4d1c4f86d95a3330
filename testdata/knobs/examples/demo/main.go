package main

import "example/internal/lib"

func main() { lib.New(lib.Config{FromExample: 1}) }
