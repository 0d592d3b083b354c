package workload

// NewTestBench wraps an arbitrary generator as a Bench, for tests
// outside the package.
func NewTestBench(name string, sharedBytes int64, run func(*Emitter)) *Bench {
	return &Bench{Name: name, SharedBytes: sharedBytes, run: run}
}
