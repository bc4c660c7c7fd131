package vm

import "testing"

// InstanceMemSize exposes the size of one machine's memory buffer (data
// region plus stack) to the external tests in package vm_test.
func InstanceMemSize(p *Program) int { return int(p.memSize) }

// UseReferenceDispatch runs every activation through the
// per-instruction reference dispatcher (referenceCall) until the test
// ends. The switch is process-wide, so tests that use it must not run
// in parallel.
func UseReferenceDispatch(t testing.TB) {
	t.Helper()
	referenceDispatch = referenceCall
	t.Cleanup(func() { referenceDispatch = nil })
}
