package main

import "example.com/m/a"

func main() { a.BenchOnly() }
