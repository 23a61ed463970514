// Package engine executes a trained model on the simulated machine,
// producing both the model's prediction and the Hardware Performance Counter
// reading an observer of that inference would see.
//
// Execution model. The engine replays the inference as a *predicated sparse*
// runtime: every multiply-accumulate issues as an instruction regardless of
// operand values (so the retired-instruction and branch counts are
// input-independent, as the paper observes on dense PyTorch), but the memory
// system is value-aware — cache lines whose activation data is entirely zero
// are satisfied by the zero-content-aware (ZCA) structure and never move
// data, and weight blocks gated by an all-zero activation row group have
// their loads elided. Which lines move is therefore a function of *which
// neurons fire*, which is exactly the data-flow side channel AdvHunter
// exploits: clean inputs of a class produce a characteristic activation
// sparsity pattern, adversarial inputs steered into that class do not.
//
// The numerical forward pass is delegated to the nn layers themselves, so
// the engine's prediction is the model's prediction by construction; the
// engine only derives the access trace from each layer's (input, output)
// pair and parameters.
package engine

import (
	"advhunter/internal/uarch/branch"
	"advhunter/internal/uarch/cache"
	"advhunter/internal/uarch/hpc"
)

// lineB is the cache-line size the engine assumes when laying out tensors;
// it matches the default hierarchy configuration.
const lineB = 64

// floatsPerLine is how many float64 activations share one cache line.
const floatsPerLine = lineB / 8

// Address-space layout of the simulated process.
const (
	codeBase   = 0x0040_0000 // per-layer code regions, 4 KiB apart
	codeStride = 0x1000
	weightBase = 0x1000_0000 // model parameters, laid out sequentially
	inputBase  = 0x1f00_0000 // the input image buffer
	arenaBase  = 0x2000_0000 // activation arena (ring)
	arenaSize  = 4 << 20
)

// Machine bundles the microarchitectural state of the simulated core.
type Machine struct {
	Hier *cache.Hierarchy
	BP   *branch.Counted
	// Instructions is the architectural retired-instruction counter.
	Instructions uint64

	co *coRunner
}

// MachineConfig selects the hardware model.
type MachineConfig struct {
	Hierarchy cache.HierarchyConfig
	// BranchyKernels switches the modelled inference kernels from
	// branchless SIMD (ReLU/pool via max instructions, the way production
	// BLAS/DNN kernels compile — and why the paper sees no branch-miss
	// signal) to scalar code with one conditional branch per element. The
	// branchy mode exists as an ablation: it shows branch-misses becoming a
	// usable side channel when kernels are compiled naively.
	BranchyKernels bool
	// QuantLevels models the deployed tensor storage format: activations
	// whose magnitude falls below maxAbs/QuantLevels quantize to the zero
	// point and are stored as exact zeros. The default of 7 corresponds to
	// 3-bit magnitude storage, i.e. the aggressively quantized block-sparse
	// formats used in edge deployment, and maximises the sparsity the ZCA
	// memory system can see; 127 = int8, 15 = int4, 0 = float storage
	// (only post-ReLU zeros count). Classification is always computed in
	// full precision; QuantLevels only affects which lines the memory
	// system sees as zero. The ablation-quant experiment sweeps this knob.
	QuantLevels int
	// CoRunner optionally injects shared-LLC contention from a co-located
	// process (mechanical interference, as opposed to the post-hoc
	// statistical noise model).
	CoRunner CoRunnerConfig
}

// DefaultMachineConfig mirrors the scaled-down desktop part described in
// cache.DefaultHierarchyConfig.
func DefaultMachineConfig() MachineConfig {
	return MachineConfig{Hierarchy: cache.DefaultHierarchyConfig(), QuantLevels: 7}
}

// NewMachine builds the simulated core. Its conditional-branch predictor is
// a 4096-entry gshare with 8 history bits.
func NewMachine(cfg MachineConfig) *Machine {
	hier := cache.NewHierarchy(cfg.Hierarchy)
	return &Machine{
		Hier: hier,
		BP:   branch.NewCounted(branch.NewGShare(12, 8)),
		co:   newCoRunner(cfg.CoRunner, hier.LLC),
	}
}

// Reset returns the machine to a cold, deterministic state.
func (m *Machine) Reset() {
	m.Hier.Reset()
	m.BP.Reset()
	m.Instructions = 0
	if m.co != nil {
		m.co.reset()
	}
}

// Counts snapshots the HPC bank.
func (m *Machine) Counts() hpc.Counts {
	return hpc.Collect(m.Instructions, m.Hier, m.BP)
}

// loadRun issues n demand loads over consecutive lines starting at base
// (line-aligned), with zero[i] flagging ZCA-absorbed lines (nil = none zero).
// With a co-runner attached, injection ticks must interleave per access, so
// the run degrades to the per-line path; otherwise the whole span is resolved
// by the hierarchy's run loop. Event order is identical in both cases.
func (m *Machine) loadRun(base uint64, n int, zero []bool) {
	if m.co == nil {
		m.Hier.LoadRun(base, n, zero)
		return
	}
	addr := base
	for i := 0; i < n; i++ {
		m.Hier.Load(addr, zero != nil && zero[i])
		m.co.tick()
		addr += lineB
	}
}

// storeRun is loadRun for demand stores.
func (m *Machine) storeRun(base uint64, n int, zero []bool) {
	if m.co == nil {
		m.Hier.StoreRun(base, n, zero)
		return
	}
	addr := base
	for i := 0; i < n; i++ {
		m.Hier.Store(addr, zero != nil && zero[i])
		m.co.tick()
		addr += lineB
	}
}

// fetchCode fetches n consecutive code lines starting at base. Instruction
// fetches never tick the co-runner, so the run path is always legal.
func (m *Machine) fetchCode(base uint64, n int) {
	m.Hier.FetchRun(base, n)
}

// loopBranches accounts for a counted loop at the given site: iterations
// back-edges predicted taken plus one mispredicted exit.
func (m *Machine) loopBranches(pc uint64, iterations uint64) {
	m.BP.FeedBulk(pc, iterations)
}

// condBranch feeds one data-dependent conditional branch.
func (m *Machine) condBranch(pc uint64, taken bool) {
	m.BP.Feed(pc, taken)
}
