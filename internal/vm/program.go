package vm

import (
	"bytes"
	"fmt"
	"sort"
	"sync"

	"mperf/internal/ir"
	"mperf/internal/kernel"
	"mperf/internal/platform"
)

// Program is the immutable compiled artifact of one module: everything
// that is a pure function of the verified post-pipeline IR — the
// pre-bound funcPlans and exec funcs, the global-memory layout, the
// symbol table, and (optionally) the seeded initial data image. A
// Program holds no machine state, so one Program is safely shared by
// any number of Machines across goroutines; NewMachine only allocates
// and copies per-instance state.
//
// Programs are platform-portable: the plans depend only on the module
// (the vectorizer pipeline that shaped the module is where platform
// differences enter), so the same Program can instantiate machines on
// different platforms with matching pipeline configurations. Platform
// limits such as a missing vector unit are enforced at execution time,
// exactly as on hardware.
type Program struct {
	mod *ir.Module

	plans    map[*ir.Func]*funcPlan
	numPlans int
	symbols  []symbol

	globalAddr map[string]uint64
	// stackBase is where the alloca stack starts (globals end, aligned);
	// memSize = stackBase + stackSize is every instance's memory size.
	stackBase uint64
	memSize   uint64

	// image, when set, is the initial content of the global data region
	// [memBase, stackBase) copied into every new machine — the baked
	// result of a deterministic per-instance Seed.
	image []byte

	// memPool recycles instance memory between Release and NewMachine.
	// Buffers in the pool are always fully zeroed below the releasing
	// machine's dirty high-water mark, so a pooled instantiation is
	// indistinguishable from a fresh allocation.
	memPool sync.Pool
}

// Compile verifies, freezes and plans a module into an immutable
// Program. The module must not be mutated afterwards (ir.Freeze makes
// the construction APIs enforce this). DecodeArtifact plans through
// here too: every module passes the structural SSA check first,
// decoded ones included, because a checksum proves the bytes are the
// ones that were written, not that they describe well-formed IR.
func Compile(mod *ir.Module) (*Program, error) {
	if err := ir.Verify(mod); err != nil {
		return nil, fmt.Errorf("vm: module does not verify: %w", err)
	}
	mod.Freeze()
	p := &Program{
		mod:        mod,
		globalAddr: make(map[string]uint64),
		plans:      make(map[*ir.Func]*funcPlan),
	}

	// Lay out globals then the alloca stack.
	addr := uint64(memBase)
	for _, g := range mod.Globals {
		addr = align(addr, 64)
		p.globalAddr[g.GName] = addr
		addr += uint64(g.SizeBytes())
	}
	p.stackBase = align(addr, 64)
	p.memSize = p.stackBase + stackSize

	pl := &planner{prog: p, plans: p.plans, nextBase: 0x400000}
	if err := pl.planModule(mod); err != nil {
		return nil, err
	}
	p.numPlans = len(p.plans)
	for f, fp := range p.plans {
		p.symbols = append(p.symbols, symbol{base: fp.base, end: fp.base + fp.size, name: f.FName})
	}
	sort.Slice(p.symbols, func(i, j int) bool { return p.symbols[i].base < p.symbols[j].base })

	p.memPool.New = func() any {
		b := make([]byte, p.memSize)
		return &b
	}
	return p, nil
}

// Module returns the frozen module the program was compiled from.
func (p *Program) Module() *ir.Module { return p.mod }

// GlobalAddr returns the load address of a global; the layout is a
// program-level constant shared by every machine.
func (p *Program) GlobalAddr(name string) (uint64, error) {
	a, ok := p.globalAddr[name]
	if !ok {
		return 0, fmt.Errorf("vm: no global @%s", name)
	}
	return a, nil
}

// DataSize returns the size of the global data region in bytes.
func (p *Program) DataSize() int { return int(p.stackBase - memBase) }

// SetDataImage installs the initial content of the global data region,
// copied into every machine NewMachine creates from then on. img must
// cover exactly the data region (see DataSize and Machine.SnapshotData).
// Call it once, before the program is shared across goroutines; it is
// how a deterministic Seed is baked into the artifact so that warm
// instantiation is a plain memory copy.
//
// The program adopts img without copying it: the caller hands over a
// fresh buffer (normally straight from SnapshotData) and must not
// modify it afterwards.
func (p *Program) SetDataImage(img []byte) error {
	if len(img) != p.DataSize() {
		return fmt.Errorf("vm: data image is %d bytes, program data region is %d", len(img), p.DataSize())
	}
	if p.image != nil {
		return fmt.Errorf("vm: program already has a data image")
	}
	p.image = img
	return nil
}

// NewMachine instantiates the program on a fresh hart of the platform.
// Only mutable per-instance state is allocated (or recycled from the
// program's pool): the memory image, stack, frame pools and PMU. The
// compiled plans are shared with every other machine of this program.
func NewMachine(p *Program, plat *platform.Platform) *Machine {
	m := &Machine{
		prog:      p,
		plat:      plat,
		hart:      plat.NewHart(),
		MaxSteps:  defaultMaxStep,
		vlenBytes: plat.Core.VectorLanes32 * 4,
	}
	m.kern = kernel.New(m.hart.Firmware, m)

	memRef := p.memPool.Get().(*[]byte)
	m.memRef = memRef
	m.mem = *memRef
	m.stackTop = p.stackBase
	m.dirtyHigh = memBase
	if p.image != nil {
		copy(m.mem[memBase:p.stackBase], p.image)
		m.dirtyHigh = memBase + uint64(len(p.image))
	}
	m.framePools = make([][]*frame, p.numPlans)
	return m
}

// Release returns the machine's instance memory to the program's pool,
// zeroing only the region dirtied since instantiation (tracked as a
// high-water mark over all stores), so sweeps stop paying a full
// stack-sized memset per warm instantiation. The machine must not be
// used after Release; releasing twice is a no-op.
func (m *Machine) Release() {
	if m.mem == nil {
		return
	}
	m.FlushExecStats()
	hi := m.dirtyHigh
	if hi > uint64(len(m.mem)) {
		hi = uint64(len(m.mem))
	}
	clearRegion := m.mem[memBase:hi]
	for i := range clearRegion {
		clearRegion[i] = 0
	}
	m.prog.memPool.Put(m.memRef)
	m.mem, m.memRef = nil, nil
	m.frames, m.framePools = nil, nil
}

// SnapshotData copies out the machine's global data region — the bytes
// a Seed function wrote — into a fresh buffer that SetDataImage can
// adopt.
func (m *Machine) SnapshotData() []byte {
	return bytes.Clone(m.mem[memBase:m.prog.stackBase])
}
