package vm

// InstanceMemSize exposes the size of one machine's memory buffer (data
// region plus stack) to the external tests in package vm_test.
func InstanceMemSize(p *Program) int { return int(p.memSize) }
