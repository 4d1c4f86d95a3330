package main

func main() { panic("examples are not scanned") }
