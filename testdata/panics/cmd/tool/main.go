package main

import "os"

func main() {
	if _, err := os.Open("x"); err != nil {
		panic(err) // a command must report this and exit
	}
}
