package lin

import "runtime"

// Test files are exempt: sweeping Workers across NumCPU and spinning
// harness goroutines is how the knob's invariance gets verified, and a
// table of cases generates no matrix.
func helperForTests() int {
	go func() {}()
	for range map[string]int{} {
	}
	return runtime.NumCPU()
}
