package main

import (
	"io"

	"fixture/lib"
)

func main() { io.WriteString(new(lib.Sink), "walk") }
