// Package dsm implements a GeNIMA-style page-based software distributed
// shared memory system on top of the MultiEdge API (IPPS'07 §3 uses
// GeNIMA [5] to run the SPLASH-2 applications).
//
// The design follows GeNIMA's home-based release consistency and its
// defining idea — using the network interface's remote memory operations
// to avoid asynchronous protocol processing at the remote node:
//
//   - Every page has a home node; the home's copy is authoritative at
//     synchronization points.
//   - A read miss fetches the page with a single MultiEdge remote READ
//     of the home's memory: no software runs at the home.
//   - Writers create a twin on first write; at release/barrier the
//     twin/current diff is flushed with remote WRITEs straight into the
//     home's memory: again no home-side software.
//   - Only synchronization (locks, barriers) uses control messages:
//     small remote writes with notifications, handled by a per-node
//     service process standing in for GeNIMA's protocol handler.
//
// The paper's hardware page faults are replaced by explicit access
// calls (RSlice/WSlice) because Go cannot trap loads and stores; the
// network-visible behaviour — page fetches, diff flushes, write-notice
// invalidations, lock and barrier traffic — is preserved (DESIGN.md
// documents the substitution).
//
// Ordering: bulk data (page fetches, diffs) is unfenced; each control
// message carries a backward fence so it is performed only after the
// notices written before it on the same connection. Cross-connection
// ordering comes from waiting operation handles before sending control
// messages. This is exactly the "enforce ordering only between
// necessary operations" GeNIMA variant the paper evaluates as 2Lu-1G
// (Figure 6); under the strictly ordered 2L-1G configuration the fences
// are subsumed by global frame ordering.
package dsm

import (
	"fmt"
	"sort"

	"multiedge/internal/cluster"
	"multiedge/internal/core"
	"multiedge/internal/frame"
	"multiedge/internal/obs"
	"multiedge/internal/sim"
)

// PageSize is the sharing granularity (the platform's 4 KB pages).
const PageSize = 4096

// page states
const (
	pgInvalid = iota
	pgClean
	pgDirty
)

// System is a cluster-wide shared address space: one Instance per node
// plus a global allocator for shared data.
type System struct {
	Cl          *cluster.Cluster
	Insts       []*Instance
	sharedBytes int
	brk         uint64  // allocator offset within the shared region
	base        uint64  // shared region base (identical on every node)
	homes       []uint8 // per-page home node (shared by all instances)
	nodes       int
}

// Config sizes the shared address space.
type Config struct {
	SharedBytes int
}

// New builds the DSM over an established full mesh. It allocates the
// shared region and message areas identically on every node and starts
// each node's service process.
func New(cl *cluster.Cluster, conns [][]*core.Conn, cfg Config) *System {
	if cfg.SharedBytes <= 0 || cfg.SharedBytes%PageSize != 0 {
		panic("dsm: SharedBytes must be a positive multiple of PageSize")
	}
	n := cl.Cfg.Nodes
	if n > 64 {
		panic("dsm: at most 64 nodes (write-notice masks are 64-bit)")
	}
	pages := cfg.SharedBytes / PageSize
	sys := &System{Cl: cl, sharedBytes: cfg.SharedBytes, nodes: n, homes: make([]uint8, pages)}
	// Default placement: round-robin, like GeNIMA without programmer
	// placement hints. AllocAt/AllocOwned override per allocation.
	for pg := range sys.homes {
		sys.homes[pg] = uint8(pg % n)
	}
	for i := 0; i < n; i++ {
		in := newInstance(sys, cl.Nodes[i], conns[i], n, pages)
		sys.Insts = append(sys.Insts, in)
		if i == 0 {
			sys.base = in.shared
		} else if in.shared != sys.base {
			panic("dsm: shared region base differs across nodes")
		}
	}
	for _, in := range sys.Insts {
		in.start()
	}
	for _, in := range sys.Insts {
		in.registerObs()
	}
	return sys
}

// registerObs mirrors the instance's Stats into the cluster's obs
// registry (no-op when observability is off).
func (in *Instance) registerObs() {
	r := in.node.EP.Obs()
	if r == nil {
		return
	}
	nl := obs.NodeLabel(in.self)
	r.AddCollector(func(emit func(obs.Sample)) {
		c := func(name string, v uint64) {
			emit(obs.Sample{Name: name, Labels: []obs.Label{nl}, Value: float64(v), Type: obs.TypeCounter})
		}
		c("dsm_fetches_total", in.Stats.Fetches)
		c("dsm_fetch_bytes_total", in.Stats.FetchBytes)
		c("dsm_twins_total", in.Stats.Twins)
		c("dsm_diff_ops_total", in.Stats.DiffOps)
		c("dsm_diff_msgs_total", in.Stats.DiffMsgs)
		c("dsm_diff_bytes_total", in.Stats.DiffBytes)
		c("dsm_invalidations_total", in.Stats.Invalidations)
		c("dsm_lock_acquires_total", in.Stats.LockAcquires)
		c("dsm_remote_msgs_total", in.Stats.RemoteMsgs)
		c("dsm_barriers_total", in.Stats.Barriers)
	})
}

// Alloc reserves size bytes of shared memory (64-byte aligned) and
// returns its address, valid on every node.
func (s *System) Alloc(size int) uint64 {
	const align = 64
	off := (s.brk + align - 1) &^ (align - 1)
	if off+uint64(size) > uint64(s.sharedBytes) {
		panic(fmt.Sprintf("dsm: shared region exhausted: need %d at %d of %d", size, off, s.sharedBytes))
	}
	s.brk = off + uint64(size)
	return s.base + off
}

// AllocPages reserves whole pages, so distinct allocations never share
// a page (the apps use this for per-node regions to limit false
// sharing, as SPLASH-2 padding does).
func (s *System) AllocPages(size int) uint64 {
	pad := (PageSize - int(s.brk)%PageSize) % PageSize
	s.brk += uint64(pad)
	return s.Alloc((size + PageSize - 1) &^ (PageSize - 1))
}

// AllocAt reserves whole pages homed at the given node — the placement
// hint a tuned SPLASH-2 port gives its DSM so data lives with the node
// that computes on it.
func (s *System) AllocAt(size, home int) uint64 {
	if home < 0 || home >= s.nodes {
		panic("dsm: AllocAt: bad home node")
	}
	addr := s.AllocPages(size)
	first := int(addr-s.base) / PageSize
	last := int(addr-s.base+uint64(size)-1) / PageSize
	for pg := first; pg <= last; pg++ {
		s.homes[pg] = uint8(home)
	}
	return addr
}

// AllocOwned reserves whole pages homed in contiguous equal shares:
// node i homes the i-th n-th of the pages. Use for arrays whose rows
// are block-distributed across nodes.
func (s *System) AllocOwned(size int) uint64 {
	addr := s.AllocPages(size)
	first := int(addr-s.base) / PageSize
	count := (size + PageSize - 1) / PageSize
	for k := 0; k < count; k++ {
		s.homes[first+k] = uint8(k * s.nodes / count)
	}
	return addr
}

// Base returns the shared region's base address (identical on every
// node).
func (s *System) Base() uint64 { return s.base }

// SharedBytes returns the size of the shared region.
func (s *System) SharedBytes() int { return s.sharedBytes }

// HomeOf returns the home node of the page containing addr.
func (s *System) HomeOf(addr uint64) int {
	return int(s.homes[int(addr-s.base)/PageSize])
}

// WriteShared initializes shared memory out of band, writing directly to
// each page's home copy. It is valid only before the simulated
// application phase touches the range (SPLASH-2 style: initialization is
// excluded from the measured phase).
func (s *System) WriteShared(addr uint64, data []byte) {
	for off := 0; off < len(data); {
		pg := s.Insts[0].pageOf(addr + uint64(off))
		home := s.Insts[0].home(pg)
		pa := s.Insts[home].pageAddr(pg)
		inPage := int(addr + uint64(off) - pa)
		n := PageSize - inPage
		if n > len(data)-off {
			n = len(data) - off
		}
		copy(s.Insts[home].mem()[addr+uint64(off):], data[off:off+n])
		off += n
	}
}

// ReadShared assembles the authoritative (home) contents of a shared
// range, for post-run verification. Call it only at a quiescent point
// (after the application's final barrier).
func (s *System) ReadShared(addr uint64, n int) []byte {
	out := make([]byte, n)
	for off := 0; off < n; {
		pg := s.Insts[0].pageOf(addr + uint64(off))
		home := s.Insts[0].home(pg)
		pa := s.Insts[home].pageAddr(pg)
		inPage := int(addr + uint64(off) - pa)
		m := PageSize - inPage
		if m > n-off {
			m = n - off
		}
		copy(out[off:], s.Insts[home].mem()[addr+uint64(off):addr+uint64(off)+uint64(m)])
		off += m
	}
	return out
}

// Breakdown is the per-node execution-time decomposition the paper's
// Figures 3-6 plot.
type Breakdown struct {
	Compute  sim.Time // application work (charged via Compute)
	Data     sim.Time // waiting for remote page fetches
	Lock     sim.Time // lock acquire/release, including diff-flush waits there
	Barrier  sim.Time // barrier wait, including diff-flush waits there
	Overhead sim.Time // twin creation and diff generation CPU time
}

// Total returns the sum of all categories.
func (b Breakdown) Total() sim.Time {
	return b.Compute + b.Data + b.Lock + b.Barrier + b.Overhead
}

// Add accumulates another breakdown.
func (b *Breakdown) Add(o Breakdown) {
	b.Compute += o.Compute
	b.Data += o.Data
	b.Lock += o.Lock
	b.Barrier += o.Barrier
	b.Overhead += o.Overhead
}

// Stats counts DSM protocol events at one node.
type Stats struct {
	Fetches       uint64 // remote page fetches
	FetchBytes    uint64
	Twins         uint64 // twin creations
	DiffOps       uint64 // direct remote writes carrying diff runs
	DiffMsgs      uint64 // packed diff messages (fragmented pages)
	DiffBytes     uint64
	Invalidations uint64
	LockAcquires  uint64
	RemoteMsgs    uint64 // control messages sent
	Barriers      uint64
}

// Add accumulates another node's stats.
func (s *Stats) Add(o Stats) {
	s.Fetches += o.Fetches
	s.FetchBytes += o.FetchBytes
	s.Twins += o.Twins
	s.DiffOps += o.DiffOps
	s.DiffMsgs += o.DiffMsgs
	s.DiffBytes += o.DiffBytes
	s.Invalidations += o.Invalidations
	s.LockAcquires += o.LockAcquires
	s.RemoteMsgs += o.RemoteMsgs
	s.Barriers += o.Barriers
}

// Instance is one node's DSM runtime.
type Instance struct {
	sys    *System
	node   *cluster.Node
	self   int
	n      int
	conns  []*core.Conn // by peer node id; nil at self
	env    *sim.Env
	sqPend []int // outstanding SQ completions per peer (Core.UseSQ)

	shared       uint64 // base of the shared mirror in endpoint memory
	pages        int
	state        []uint8
	twins        map[int][]byte
	dirty        map[int]bool
	pendingInval map[int]bool // deferred invalidations for dirty pages
	// sinceBarrier records every page this node has dirtied since its
	// last barrier, even if already flushed at a lock release. Lock
	// grants carry only the lock's own notice history, so the barrier
	// must re-advertise these for nodes that never acquired the lock —
	// this is the transitivity that full LRC gets from vector-timestamp
	// intervals.
	sinceBarrier map[uint32]uint64 // page -> writer bitmask (self only)

	// Message plumbing (see sync.go, diff.go).
	inboxCtrl   uint64 // base of control slots
	inboxNotice uint64 // base of notice buffers
	inboxDiff   uint64 // base of per-sender diff staging buffers
	outCtrl     uint64 // staging for outgoing control messages
	outNotice   uint64 // staging for outgoing notice arrays
	outDiff     uint64 // staging for outgoing diff batches
	maxNotices  int

	notify    *sim.Mailbox[core.Notification]
	grantMb   sim.Mailbox[struct{}]
	ackMb     sim.Mailbox[struct{}]
	barMb     sim.Mailbox[struct{}]
	diffAckMb sim.Mailbox[struct{}]

	// Lock manager state for locks homed here.
	locks map[int]*lockState
	// Barrier master state (node 0 only).
	barArrived int
	barNotices map[uint32]uint64 // page -> writer bitmask
	barEpoch   uint32

	B     Breakdown
	Stats Stats
}

type lockState struct {
	held    bool
	holder  int
	waiters []int
	notices map[uint32]uint64 // page -> writer bitmask
}

const (
	ctrlSlotBytes = 64
	numClasses    = 8
	numNoticeBufs = 4
)

func newInstance(sys *System, node *cluster.Node, conns []*core.Conn, n, pages int) *Instance {
	in := &Instance{
		sys: sys, node: node, self: node.ID, n: n, conns: conns,
		env: node.EP.Env(), pages: pages,
		state: make([]uint8, pages),
		twins: make(map[int][]byte), dirty: make(map[int]bool),
		pendingInval: make(map[int]bool),
		locks:        make(map[int]*lockState),
		barNotices:   make(map[uint32]uint64),
		sinceBarrier: make(map[uint32]uint64),
		maxNotices:   pages,
		sqPend:       make([]int, n),
	}
	ep := node.EP
	in.shared = ep.Alloc(pages * PageSize)
	peers := n - 1
	in.inboxCtrl = ep.Alloc(peers * numClasses * ctrlSlotBytes)
	in.inboxNotice = ep.Alloc(peers * numNoticeBufs * in.maxNotices * 4)
	in.inboxDiff = ep.Alloc(peers * diffBufBytes)
	in.outCtrl = ep.Alloc(ctrlSlotBytes)
	in.outNotice = ep.Alloc(in.maxNotices * 4)
	in.outDiff = ep.Alloc(diffBufBytes)
	return in
}

func (in *Instance) start() {
	in.notify = in.node.EP.GlobalNotify()
	self := in
	in.env.Go(fmt.Sprintf("dsm-svc-%d", in.self), func(p *sim.Proc) { self.serve(p) })
}

// Node returns this instance's node id.
func (in *Instance) Node() int { return in.self }

// N returns the number of nodes in the system.
func (in *Instance) N() int { return in.n }

// Env returns the simulation environment.
func (in *Instance) Env() *sim.Env { return in.env }

// home returns the home node of a page.
func (in *Instance) home(pg int) int { return int(in.sys.homes[pg]) }

func (in *Instance) pageOf(addr uint64) int {
	if addr < in.shared || addr >= in.shared+uint64(in.pages*PageSize) {
		panic(fmt.Sprintf("dsm: address %d outside shared region", addr))
	}
	return int(addr-in.shared) / PageSize
}

func (in *Instance) pageAddr(pg int) uint64 { return in.shared + uint64(pg)*PageSize }

// mem returns the node's raw memory.
func (in *Instance) mem() []byte { return in.node.EP.Mem() }

// Mem exposes the node's raw endpoint memory (the DSM mirror lives
// inside it). Applications should use RSlice/WSlice, which maintain
// coherence; direct access is for verification and fault injection.
func (in *Instance) Mem() []byte { return in.mem() }

// Compute charges t of application computation to the node's app CPU.
func (in *Instance) Compute(p *sim.Proc, t sim.Time) {
	in.B.Compute += t
	p.Exec(in.node.CPUs.App, t)
}

// ---------------------------------------------------------------------
// Page access.
// ---------------------------------------------------------------------

// stateOf returns a page's effective state: pages homed here are always
// at least Clean (the local mirror IS the home copy), even though homes
// may be assigned after instance construction.
func (in *Instance) stateOf(pg int) uint8 {
	st := in.state[pg]
	if st == pgInvalid && in.home(pg) == in.self {
		return pgClean
	}
	return st
}

// fetchWindow bounds how many page reads a node keeps outstanding.
// MultiEdge has per-connection flow control but no congestion control
// (IPPS'07 §2.4), so an unbounded burst of page fetches from many homes
// at once overflows the receiver's switch port (incast) and collapses
// into retransmission. Real DSMs bound their fetch pipelining the same
// way.
const fetchWindow = 24

// fetch brings the given missing pages in with pipelined remote reads
// (up to fetchWindow outstanding) and accounts the wait as data time.
func (in *Instance) fetch(p *sim.Proc, pgs []int) {
	if len(pgs) == 0 {
		return
	}
	t0 := in.env.Now()
	sp := in.node.EP.Obs().StartLayerSpan(in.self, "dsm", "page-fetch", len(pgs)*PageSize)
	hs := make([]*core.Handle, 0, len(pgs))
	for i, pg := range pgs {
		if i >= fetchWindow {
			hs[i-fetchWindow].Wait(p)
		}
		addr := in.pageAddr(pg)
		c := in.conns[in.home(pg)]
		hs = append(hs, c.MustDo(p, core.Op{Remote: addr, Local: addr, Size: PageSize, Kind: frame.OpRead}))
		in.Stats.Fetches++
		in.Stats.FetchBytes += PageSize
	}
	for _, h := range hs {
		h.Wait(p)
	}
	for _, pg := range pgs {
		in.state[pg] = pgClean
	}
	sp.EndAt(in.env.Now())
	in.B.Data += in.env.Now() - t0
}

// Range is a shared-memory byte range for Prefetch.
type Range struct {
	Addr uint64
	Len  int
}

// Prefetch brings every missing page covering the given ranges in with
// concurrent remote reads — the bulk-transfer optimization a tuned
// SPLASH-2 port applies when the access pattern is known up front
// (e.g. FFT's transpose strips, Radix's permutation regions), instead
// of faulting pages one at a time.
func (in *Instance) Prefetch(p *sim.Proc, ranges []Range) {
	var missing []int
	seen := make(map[int]bool)
	for _, r := range ranges {
		if r.Len <= 0 {
			continue
		}
		last := in.pageOf(r.Addr + uint64(r.Len) - 1)
		for pg := in.pageOf(r.Addr); pg <= last; pg++ {
			if in.stateOf(pg) == pgInvalid && !seen[pg] {
				seen[pg] = true
				missing = append(missing, pg)
			}
		}
	}
	in.fetch(p, missing)
}

// RSlice makes [addr, addr+n) readable on this node and returns the
// backing bytes. The caller must not modify them (use WSlice to write).
func (in *Instance) RSlice(p *sim.Proc, addr uint64, n int) []byte {
	if n <= 0 {
		panic("dsm: empty slice request")
	}
	var missing []int
	for pg := in.pageOf(addr); pg <= in.pageOf(addr+uint64(n)-1); pg++ {
		if in.stateOf(pg) == pgInvalid {
			missing = append(missing, pg)
		}
	}
	in.fetch(p, missing)
	return in.mem()[addr : addr+uint64(n)]
}

// WSlice makes [addr, addr+n) writable: missing pages are fetched and a
// twin is created for every page not already dirty, so release-time
// diffs capture exactly the bytes the caller changes.
func (in *Instance) WSlice(p *sim.Proc, addr uint64, n int) []byte {
	b := in.RSlice(p, addr, n)
	costs := in.sys.Cl.Cfg.Costs
	var twinCost sim.Time
	for pg := in.pageOf(addr); pg <= in.pageOf(addr+uint64(n)-1); pg++ {
		if in.state[pg] == pgDirty {
			continue
		}
		pa := in.pageAddr(pg)
		in.twins[pg] = append([]byte(nil), in.mem()[pa:pa+PageSize]...)
		in.dirty[pg] = true
		in.state[pg] = pgDirty
		in.sinceBarrier[uint32(pg)] |= 1 << uint(in.self)
		in.Stats.Twins++
		twinCost += costs.Copy(PageSize)
	}
	if twinCost > 0 {
		in.B.Overhead += twinCost
		p.Exec(in.node.CPUs.App, twinCost)
	}
	return b
}

// ---------------------------------------------------------------------
// Submission-queue plumbing (Core.UseSQ).
// ---------------------------------------------------------------------

// useSQ reports whether many-small-ops phases route through the
// submission-queue path instead of eager per-op issue.
func (in *Instance) useSQ() bool { return in.sys.Cl.Cfg.Core.UseSQ }

// ringSQ rings the doorbell on the connection to peer on the given CPU,
// records the issued descriptors as pending completions, and reaps any
// completions that have already landed (polling is free).
func (in *Instance) ringSQ(p *sim.Proc, cpu *sim.Resource, to int) {
	in.sqPend[to] += in.conns[to].MustRingOn(p, cpu)
	for in.sqPend[to] > 0 {
		if _, ok := in.conns[to].PollCQ(); !ok {
			break
		}
		in.sqPend[to]--
	}
}

// drainSQ blocks until every descriptor rung on the connection to peer
// has completed — the SQ path's equivalent of waiting a handle set.
func (in *Instance) drainSQ(p *sim.Proc, to int) {
	for in.sqPend[to] > 0 {
		in.conns[to].WaitCQ(p)
		in.sqPend[to]--
	}
}

// ---------------------------------------------------------------------
// Diff flush (release-time propagation to homes).
// ---------------------------------------------------------------------

// flushDiffs pushes every dirty page's changes to its home with remote
// writes, waits for them to be performed, and returns the write notices
// (page<<8 | writer) describing what this node modified. The diff
// generation CPU time is charged to B.Overhead here and returned as
// diffCost; the caller accounts the rest of the elapsed time to its own
// category (lock or barrier), so no instant is counted twice.
func (in *Instance) flushDiffs(p *sim.Proc) (notices []uint32, diffCost sim.Time) {
	if len(in.dirty) == 0 {
		return nil, 0
	}
	pgs := make([]int, 0, len(in.dirty))
	for pg := range in.dirty {
		pgs = append(pgs, pg)
	}
	sort.Ints(pgs)
	costs := in.sys.Cl.Cfg.Costs
	notices = make([]uint32, 0, len(pgs))
	var hs []*core.Handle
	batches := make(map[int][]diffBatch)
	useSQ := in.useSQ()
	sqHomes := make([]bool, in.n) // homes with posted-but-unrung descriptors
	for _, pg := range pgs {
		notices = append(notices, uint32(pg)<<8|uint32(in.self))
		home := in.home(pg)
		if home == in.self {
			// The local mirror is the home copy; nothing to send.
			delete(in.twins, pg)
			delete(in.dirty, pg)
			in.state[pg] = pgClean
			continue
		}
		pa := in.pageAddr(pg)
		cur := in.mem()[pa : pa+PageSize]
		twin := in.twins[pg]
		diffCost += costs.Copy(2 * PageSize) // scan twin and current copy
		runs := diffRuns(twin, cur)
		if len(runs) <= directRunMax {
			// Few contiguous changes: deposit them straight into the
			// home's memory (no home-side software). Under UseSQ the runs
			// are posted now and issued below under one doorbell per home.
			for _, r := range runs {
				if useSQ {
					in.conns[home].MustPost(core.Op{
						Remote: pa + uint64(r.off), Local: pa + uint64(r.off),
						Size: r.n, Kind: frame.OpWrite,
					})
					sqHomes[home] = true
				} else {
					hs = append(hs, in.conns[home].MustDo(p, core.Op{
						Remote: pa + uint64(r.off), Local: pa + uint64(r.off),
						Size: r.n, Kind: frame.OpWrite,
					}))
				}
				in.Stats.DiffOps++
				in.Stats.DiffBytes += uint64(r.n)
			}
		} else {
			// Fragmented page: pack the runs into a diff message the
			// home's handler applies.
			sz := pageDiffSize(runs)
			bs := batches[home]
			if len(bs) == 0 || len(bs[len(bs)-1].buf)+sz > diffBufBytes {
				bs = append(bs, diffBatch{})
			}
			last := &bs[len(bs)-1]
			last.buf = encodePageDiff(last.buf, pg, cur, runs)
			last.pages++
			batches[home] = bs
		}
		delete(in.twins, pg)
		delete(in.dirty, pg)
		if in.pendingInval[pg] {
			// A write notice arrived while the page was dirty: now that
			// our bytes are flushed, the deferred invalidation lands.
			delete(in.pendingInval, pg)
			in.state[pg] = pgInvalid
		} else {
			in.state[pg] = pgClean
		}
	}
	if diffCost > 0 {
		in.B.Overhead += diffCost
		p.Exec(in.node.CPUs.App, diffCost)
	}
	for home, posted := range sqHomes {
		if posted {
			in.ringSQ(p, in.node.CPUs.App, home)
		}
	}
	if len(batches) > 0 {
		in.sendDiffBatches(p, batches)
	}
	for _, h := range hs {
		h.Wait(p)
	}
	for home, posted := range sqHomes {
		if posted {
			in.drainSQ(p, home)
		}
	}
	return notices, diffCost
}

// run is one contiguous modified byte range within a page.
type run struct {
	off, n int
}

// diffRuns compares a twin with the current page copy and returns the
// maximal contiguous modified ranges. Runs must contain ONLY modified
// bytes: concurrent writers to disjoint parts of the same page merge at
// the home through these diffs, so shipping any unmodified byte would
// overwrite another node's concurrent write with a stale value (the
// classic twin/diff false-sharing rule, as in TreadMarks/HLRC).
func diffRuns(twin, cur []byte) []run {
	var runs []run
	i := 0
	for i < len(cur) {
		if twin[i] == cur[i] {
			i++
			continue
		}
		start := i
		for i < len(cur) && twin[i] != cur[i] {
			i++
		}
		runs = append(runs, run{off: start, n: i - start})
	}
	return runs
}

// otherWriter is the sentinel writer byte in notice entries that were
// already filtered for their recipient ("written by someone else").
const otherWriter = 0xfe

// applyNotices invalidates pages modified by other nodes. Pages homed
// here are never invalidated: their local copy is the authoritative one
// that diffs update in place.
//
// A notice for a page this node currently holds DIRTY is a false-sharing
// case (another node flushed its bytes of the page while ours are still
// unflushed). Discarding the twin would lose our writes, so the
// invalidation is deferred: the page stays writable and turns Invalid at
// its next flush. Until then, reading another node's bytes from such a
// page is unsupported — none of the SPLASH-2 applications does it (they
// only false-share for disjoint writes).
func (in *Instance) applyNotices(entries []uint32) {
	for _, e := range entries {
		pg := int(e >> 8)
		writer := int(e & 0xff)
		if writer == in.self || in.home(pg) == in.self {
			continue
		}
		switch in.state[pg] {
		case pgClean:
			in.state[pg] = pgInvalid
			in.Stats.Invalidations++
		case pgDirty:
			in.pendingInval[pg] = true
			in.Stats.Invalidations++
		}
	}
}
