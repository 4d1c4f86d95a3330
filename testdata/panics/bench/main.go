package main

func main() { panic("the bench module is not scanned") }
