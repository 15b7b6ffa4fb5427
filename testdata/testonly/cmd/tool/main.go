package main

import (
	"encoding/json"
	"fmt"
	"io"

	"fixture/lib"
)

func main() {
	io.WriteString(new(lib.Sink), "walk")
	var o lib.Options
	if err := json.Unmarshal([]byte(`{"name":"walk"}`), &o); err != nil {
		panic(err)
	}
	r := new(lib.Runner)
	r.Merge(new(lib.Runner))
	fmt.Printf("%+v\n", r.Run(o))
}
