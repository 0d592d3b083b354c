// Command setupprobe does what a dsmnc program does before its first
// simulation, and nothing more: the Go runtime's and the dsmnc packages'
// initialisation, then the options and the ScaleSmall benchmarks. It
// loads no reference data. perfbench times it from spawn to exit, as
// setup_s of the in-process workloads (cells, fig9).
package main

import (
	"fmt"
	"os"

	"dsmnc"
	"dsmnc/workload"
)

func main() {
	opt := dsmnc.DefaultOptions()
	opt.Scale = workload.ScaleSmall
	if benches := workload.All(opt.Scale); len(benches) == 0 {
		fmt.Fprintln(os.Stderr, "setupprobe: no benchmarks")
		os.Exit(1)
	}
}
