package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"

	"multiedge/internal/apps"
	"multiedge/internal/cluster"
	"multiedge/internal/core"
	"multiedge/internal/dsm"
	"multiedge/internal/frame"
	"multiedge/internal/sim"
)

// workloads maps each workload name to its body. A body sets up through
// the layers' public calls, runs the workload phase, and leaves every
// connection closed so checkLeaks can run.
var workloads = map[string]func(*rep) error{
	"stream-2rail": runStream,
	"fanin-1k":     runFanin,
	"dsm-radix":    runRadix,
}

var workloadNames = []string{"stream-2rail", "fanin-1k", "dsm-radix"}

// fillSeeded fills b with bytes drawn from a generator seeded by seed.
func fillSeeded(b []byte, seed int64) {
	rand.New(rand.NewSource(seed)).Read(b)
}

// stamp writes an op's identity into the first 8 bytes of its buffer,
// so a transfer that did not happen cannot pass verification by finding
// an earlier op's bytes in place.
func stamp(b []byte, id uint64) { binary.LittleEndian.PutUint64(b, id) }

// dialed is one connection made by dialAll, with the base addresses of
// its working sets at the dialing (local) and dialed (remote) ends.
type dialed struct {
	c             *core.Conn
	local, remote uint64
}

// dialAll dials every (from, to) pair in its own simulated process,
// allocating n bytes at both ends after the handshake, and runs the
// simulation until every handshake is done.
func (r *rep) dialAll(pairs [][2]int, n int) ([]dialed, error) {
	out := make([]dialed, len(pairs))
	err := r.connect("dial", func() {
		for j, pr := range pairs {
			j, pr := j, pr
			r.cl.Env.Go(fmt.Sprintf("dial%d", j), func(p *sim.Proc) {
				c := r.cl.Nodes[pr[0]].EP.Dial(p, pr[1], 0)
				out[j] = dialed{c: c,
					local:  r.cl.Nodes[pr[0]].EP.Alloc(n),
					remote: r.cl.Nodes[pr[1]].EP.Alloc(n)}
			})
		}
		r.cl.Env.Run()
	})
	if err != nil {
		return nil, err
	}
	for j, d := range out {
		if d.c == nil {
			return nil, fmt.Errorf("dial %d: handshake did not complete", j)
		}
		if d.c.Failed() {
			return nil, fmt.Errorf("dial %d: %w", j, d.c.Err())
		}
	}
	return out, nil
}

// The stream-2rail working set: streamDepth closed-loop clients on one
// connection, each with one 64 KiB write outstanding.
const (
	streamDepth = 8
	streamSize  = 64 << 10
)

// runStream is the paper's one-way test on 2Lu-1G: one connection
// striped over both rails carrying streamDepth × 64 KiB remote writes.
func runStream(r *rep) error {
	if err := r.build(cluster.TwoLinkUnordered1G(2)); err != nil {
		return err
	}
	r.server = 1
	ds, err := r.dialAll([][2]int{{0, 1}}, streamDepth*streamSize)
	if err != nil {
		return err
	}
	d := ds[0]
	src, dst := r.cl.Nodes[0].EP, r.cl.Nodes[1].EP
	if err := r.phase("fill", &r.prepareWall, func() {
		fillSeeded(src.Mem()[d.local:d.local+streamDepth*streamSize], r.seed)
	}); err != nil {
		return err
	}

	r.startWindow()
	finished := 0
	for s := 0; s < streamDepth; s++ {
		s := s
		off := uint64(s * streamSize)
		loc := src.Mem()[d.local+off : d.local+off+streamSize]
		rem := dst.Mem()[d.remote+off : d.remote+off+streamSize]
		ops := r.sz.StreamOps / streamDepth
		if s < r.sz.StreamOps%streamDepth {
			ops++
		}
		r.cl.Env.Go(fmt.Sprintf("stream%d", s), func(p *sim.Proc) {
			for k := 0; k < ops; k++ {
				id := uint64(k*streamDepth + s)
				stamp(loc, id)
				r.attempted++
				t0 := r.cl.Env.Now()
				h, err := d.c.Do(p, core.Op{Remote: d.remote + off, Local: d.local + off,
					Size: streamSize, Kind: frame.OpWrite})
				if err == nil {
					h.Wait(p)
					err = h.Err()
				}
				ok := err == nil && bytes.Equal(loc, rem)
				if ok {
					r.verifiedBytes += streamSize
				} else if err == nil {
					r.fail("stream op %d: remote bytes differ", id)
				}
				r.opDone(0, s, int64(id), "write", t0, ok)
			}
			if finished++; finished == streamDepth {
				r.endWindow()
				d.c.Close(p)
			}
		})
	}
	return r.run()
}

// fanin-1k: the incast bench's congestion-controlled endpoint under a
// connection count past its fair-share floor.
const (
	faninClientNodes = 64
	faninSlots       = 8
	faninSize        = 256
)

// runFanin drives FaninConns closed-loop connections from up to 64
// client nodes into node 0. Conn j runs flavour j mod 3: eager solicited
// writes, eager reads, or SQ batches of faninSlots writes.
func runFanin(r *rep) error {
	nodes := min(r.sz.FaninConns, faninClientNodes)
	cfg := cluster.OneLink1G(1 + nodes)
	cfg.Core.SchedQueue = true
	cfg.Core.TimerWheelTick = 50 * sim.Microsecond
	cfg.Core.UseSQ = true
	cfg.Core.CongestionControl = core.CCConfig{Enable: true, InitWindow: 4}
	cfg.EcnThreshold = 40
	cfg.Obs.Recorder = true
	if err := r.build(cfg); err != nil {
		return err
	}
	r.server = 0
	pairs := make([][2]int, r.sz.FaninConns)
	for j := range pairs {
		pairs[j] = [2]int{1 + j%nodes, 0}
	}
	ds, err := r.dialAll(pairs, faninSlots*faninSize)
	if err != nil {
		return err
	}
	server := r.cl.Nodes[0].EP
	if err := r.phase("fill", &r.prepareWall, func() {
		for j, d := range ds {
			mem, base := r.cl.Nodes[pairs[j][0]].EP.Mem(), d.local
			if j%3 == 1 { // reads fetch from the server
				mem, base = server.Mem(), d.remote
			}
			fillSeeded(mem[base:base+faninSlots*faninSize], r.seed+int64(j))
		}
	}); err != nil {
		return err
	}

	r.startWindow()
	finished := 0
	for j, d := range ds {
		j, d := j, d
		node := pairs[j][0]
		cli := r.cl.Nodes[node].EP
		slot := func(k int) (op core.Op, loc, rem []byte) {
			off := uint64(k % faninSlots * faninSize)
			op = core.Op{Remote: d.remote + off, Local: d.local + off, Size: faninSize}
			return op, cli.Mem()[op.Local : op.Local+faninSize], server.Mem()[op.Remote : op.Remote+faninSize]
		}
		// eager runs one Do → Wait op and verifies it.
		eager := func(p *sim.Proc, k int, kind frame.OpType, flags frame.OpFlags) {
			op, loc, rem := slot(k)
			op.Kind, op.Flags = kind, flags
			if kind == frame.OpWrite {
				stamp(loc, uint64(j)<<32|uint64(k))
			} else {
				clear(loc) // a read that lands nothing must not verify
			}
			r.attempted++
			t0 := r.cl.Env.Now()
			h, err := d.c.Do(p, op)
			if err == nil {
				h.Wait(p)
				err = h.Err()
			}
			ok := err == nil && bytes.Equal(loc, rem)
			if ok {
				r.verifiedBytes += faninSize
			} else if err == nil {
				r.fail("fanin conn %d op %d: bytes differ", j, k)
			}
			r.opDone(node, j, int64(k), kind.String(), t0, ok)
		}
		r.cl.Env.Go(fmt.Sprintf("fanin%d", j), func(p *sim.Proc) {
			switch j % 3 {
			case 0:
				for k := 0; k < r.sz.FaninOps; k++ {
					eager(p, k, frame.OpWrite, frame.Solicit)
				}
			case 1:
				for k := 0; k < r.sz.FaninOps; k++ {
					eager(p, k, frame.OpRead, 0)
				}
			default:
				r.faninBatches(p, j, node, d, slot)
			}
			if finished++; finished == len(ds) {
				r.endWindow()
			}
			d.c.Close(p)
		})
	}
	return r.run()
}

// faninBatches runs one connection's SQ flavour: batches of up to
// faninSlots writes, Post × n then one Ring, each op timed from the Ring
// to its own CQ entry.
func (r *rep) faninBatches(p *sim.Proc, j, node int, d dialed, slot func(int) (core.Op, []byte, []byte)) {
	for done := 0; done < r.sz.FaninOps; {
		n := min(faninSlots, r.sz.FaninOps-done)
		posted := 0
		for i := 0; i < n; i++ {
			op, loc, _ := slot(i)
			op.Kind = frame.OpWrite
			if i == n-1 {
				op.Flags = frame.Solicit
			}
			stamp(loc, uint64(j)<<32|uint64(done+i))
			r.attempted++
			if err := d.c.Post(op); err != nil {
				r.opDone(node, j, int64(done+i), "sq-write", r.cl.Env.Now(), false)
				continue
			}
			posted++
		}
		t0 := r.cl.Env.Now()
		if _, err := d.c.Ring(p); err != nil {
			for i := 0; i < posted; i++ {
				r.opDone(node, j, int64(done+i), "sq-write", t0, false)
			}
			posted = 0
		}
		for i := 0; i < posted; i++ {
			comp := d.c.WaitCQ(p)
			_, loc, rem := slot(int(comp.Op.Local-d.local) / faninSize)
			ok := comp.Err == nil && bytes.Equal(loc, rem)
			if ok {
				r.verifiedBytes += faninSize
			} else if comp.Err == nil {
				r.fail("fanin conn %d sq op %d: bytes differ", j, comp.OpID)
			}
			r.opDone(node, j, int64(comp.OpID), "sq-write", t0, ok)
		}
		done += n
	}
}

// runRadix is SPLASH-2 Radix over the DSM on 16 nodes of 2Lu-1G, the
// paper's Fig. 6 configuration, verified against the sequential
// reference.
func runRadix(r *rep) error {
	const nodes = 16
	app := apps.NewRadix(r.sz.RadixKeys, nodes)
	shared := app.SharedBytes()
	if rem := shared % dsm.PageSize; rem != 0 {
		shared += dsm.PageSize - rem
	}
	cfg := cluster.TwoLinkUnordered1G(nodes)
	cfg.Core.MemBytes = shared + shared/2 + (8 << 20) // shared mirror, message areas, slack (as apps.Run)
	if err := r.build(cfg); err != nil {
		return err
	}
	r.server = 0
	var conns [][]*core.Conn
	if err := r.connect("FullMesh", func() { conns = r.cl.FullMesh() }); err != nil {
		return err
	}
	var sys *dsm.System
	if err := r.phase("dsm.New", &r.prepareWall, func() {
		sys = dsm.New(r.cl, conns, dsm.Config{SharedBytes: shared})
	}); err != nil {
		return err
	}
	if err := r.phase("Init", &r.prepareWall, func() { app.Init(sys) }); err != nil {
		return err
	}
	st0 := r.cl.Collect().Proto

	r.startWindow()
	done := 0
	var allDone sim.Signal
	for _, in := range sys.Insts {
		in := in
		r.cl.Env.Go(fmt.Sprintf("radix%d", in.Node()), func(p *sim.Proc) {
			t0 := r.cl.Env.Now()
			app.Node(p, in)
			r.opDone(in.Node(), -1, int64(in.Node()), "node-body", t0, true)
			if done++; done == nodes {
				r.endWindow()
				allDone.Fire(r.cl.Env)
			}
		})
	}
	// Teardown once every body has returned: other nodes' DSM service
	// processes use a connection until then.
	for i := 0; i < nodes; i++ {
		i := i
		r.cl.Env.Go(fmt.Sprintf("close%d", i), func(p *sim.Proc) {
			p.Wait(&allDone)
			for j := i + 1; j < nodes; j++ {
				conns[i][j].Close(p)
			}
		})
	}
	if err := r.run(); err != nil || r.setupOnly {
		return err
	}

	st := r.cl.Collect().Proto
	r.attempted = int(st.OpsStarted - st0.OpsStarted)
	r.failed = int(st.OpsFailed - st0.OpsFailed)
	if msg := app.Verify(sys); msg != "" {
		r.fail("%s", msg)
		r.failed = r.attempted // a wrong sort fails every op
	} else {
		r.verifiedBytes = int64(4 * r.sz.RadixKeys)
	}
	var ds dsm.Stats
	var bd dsm.Breakdown
	for _, in := range sys.Insts {
		ds.Add(in.Stats)
		bd.Add(in.B)
	}
	ms := func(t sim.Time) float64 { return float64(t) / float64(sim.Millisecond) / nodes }
	r.extra["dsm.fetches"] = float64(ds.Fetches)
	r.extra["dsm.diff_msgs"] = float64(ds.DiffMsgs)
	r.extra["dsm.locks"] = float64(ds.LockAcquires)
	r.extra["dsm.barriers"] = float64(ds.Barriers)
	r.extra["dsm.data_ms"] = ms(bd.Data)
	r.extra["dsm.barrier_ms"] = ms(bd.Barrier)
	r.extra["dsm.lock_ms"] = ms(bd.Lock)
	r.extra["dsm.compute_ms"] = ms(bd.Compute)
	r.extra["dsm.overhead_ms"] = ms(bd.Overhead)
	return nil
}
