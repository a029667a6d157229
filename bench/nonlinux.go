//go:build !linux

// The benchmark measures on Linux only: it pins itself with
// sched_setaffinity, paces its open loop with nanosleep, keeps its records
// in anonymous mmap regions and reads rmem_max from /proc. Every other file
// of the package carries the linux build tag; elsewhere it builds to this.
package main

import (
	"fmt"
	"os"
)

func main() {
	fmt.Fprintln(os.Stderr, "bench: the benchmark runs on Linux only")
	os.Exit(2)
}
