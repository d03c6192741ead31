//go:build !amd64 || purego

package lin

// withOtherKernels has nothing to run here: kernelGo is the only body.
func withOtherKernels(func()) {}
