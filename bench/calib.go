package main

import (
	"container/heap"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"sort"
	"sync"
	"time"
)

// The sandbox this benchmark is recorded on drifts: the same fixed work
// takes 1.0x to 1.5x as long from one quarter hour to the next, for every
// workload together (other tenants on the same cores; the kernel's steal
// counter explains only a little of it). A bound cannot gate a timing that
// moves by half for reasons outside the program, so every gated timing is
// reported relative to the host's speed when it was taken: with the daemon
// idle, the benchmark times a fixed set of reference kernels on every core
// at once, and divides what it measured around that moment by how much
// slower than nominal they ran. On a quiet host the factor is 1 and a
// calibrated millisecond is a millisecond.
//
// The kernels are the things a Go network daemon's request is made of:
// integer arithmetic, cache-missing and streaming memory access, JSON
// decoding with its allocations, sorting, a priority queue behind an
// interface, and loopback round trips that cross the kernel and wake a
// goroutine. Each is given equal weight (a geometric mean): which of them
// a workload leans on is not something the benchmark should be tuned to.
//
// The kernels, their sizes and the nominal times are constants of the
// benchmark. Changing any of them changes every gated timing and needs a
// fresh baseline.

// refKernel is one reference kernel and the milliseconds it took on the
// recording host at its quiet quartile.
type refKernel struct {
	run       func(*calibrator)
	nominalMs float64
}

var refKernels = []refKernel{
	{(*calibrator).ilp, 1.30},
	{(*calibrator).touch, 1.42},
	{(*calibrator).stream, 1.20},
	{(*calibrator).json, 1.12},
	{(*calibrator).sort, 1.00},
	{(*calibrator).heap, 0.61},
	{(*calibrator).ping, 0.82},
}

const (
	arenaWords = 4 << 20 // 32 MiB per calibrator, several times the last-level cache share
	pingBytes  = 128
)

// calibrator owns what one core's reference kernels run on.
type calibrator struct {
	arena []uint64  // touch, stream
	doc   []byte    // json: a 600-update rates body
	vals  []float64 // sort: the unsorted input
	work  []float64 // sort: scratch
	pq    uint64Heap
	conn  net.Conn // ping: one end of a loopback connection to an echo goroutine
	buf   []byte
	stop  func()
	err   error  // the ping connection broke: no further speed reading is valid
	x     uint64 // LCG state, and the sink that keeps every kernel's result live
}

type calUpdate struct {
	Flow int     `json:"flow"`
	Rate float64 `json:"rate"`
}

type calDoc struct {
	Updates []calUpdate `json:"updates"`
	Step    bool        `json:"step"`
}

type uint64Heap []uint64

func (h uint64Heap) Len() int           { return len(h) }
func (h uint64Heap) Less(i, j int) bool { return h[i] < h[j] }
func (h uint64Heap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *uint64Heap) Push(x any)        { *h = append(*h, x.(uint64)) }
func (h *uint64Heap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

func (c *calibrator) next() uint64 {
	c.x = c.x*6364136223846793005 + 1442695040888963407
	return c.x
}

// newCalibrator builds the kernels' inputs and starts the echo goroutine
// the ping kernel talks to; stop closes both ends and waits for it.
func newCalibrator() (*calibrator, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer l.Close()
	var (
		wg     sync.WaitGroup
		server net.Conn
		aerr   error
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		server, aerr = l.Accept()
	}()
	conn, err := net.Dial("tcp", l.Addr().String())
	wg.Wait()
	if err != nil {
		return nil, err
	}
	if aerr != nil {
		conn.Close()
		return nil, aerr
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		buf := make([]byte, pingBytes)
		for {
			if _, err := io.ReadFull(server, buf); err != nil {
				return
			}
			if _, err := server.Write(buf); err != nil {
				return
			}
		}
	}()
	c := &calibrator{arena: make([]uint64, arenaWords), conn: conn, buf: make([]byte, pingBytes), x: 7}
	c.stop = func() {
		conn.Close()
		server.Close()
		wg.Wait()
	}
	for i := range c.arena {
		c.arena[i] = uint64(i) // touch every page now, not inside the first sample
	}
	var d calDoc
	for i := 0; i < 600; i++ {
		d.Updates = append(d.Updates, calUpdate{i, float64(c.next()>>40) / 1000})
	}
	c.doc, _ = json.Marshal(&d)
	c.vals = make([]float64, 12000)
	for i := range c.vals {
		c.vals[i] = float64(c.next() >> 11)
	}
	c.work = make([]float64, len(c.vals))
	return c, nil
}

// ilp is integer arithmetic with several independent chains and a branch:
// bound by how many instructions the core retires, which a busy sibling
// hyperthread halves, where a single dependent chain would not notice.
func (c *calibrator) ilp() {
	a, b, d, e := c.x, uint64(2), uint64(3), uint64(4)
	for i := 0; i < 500_000; i++ {
		a = a*6364136223846793005 + 1442695040888963407
		b ^= b << 13
		b ^= b >> 7
		b ^= b << 17
		d = d*2862933555777941757 + 3037000493
		e += (a >> 3) ^ (b >> 5) ^ d
		if e&1024 != 0 {
			e ^= a
		}
	}
	c.x += a + b + d + e
}

// touch is dependent random reads and writes over the arena: cache and
// TLB misses.
func (c *calibrator) touch() {
	x := c.x
	for i := 0; i < 6000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		p := (x >> 33) % arenaWords
		c.arena[p] += x
		x += c.arena[p]
	}
	c.x = x
}

// stream sums 8 MiB of the arena in order: memory bandwidth.
func (c *calibrator) stream() {
	s := uint64(0)
	for _, v := range c.arena[:1<<20] {
		s += v
	}
	c.x += s
}

func (c *calibrator) json() {
	for i := 0; i < 3; i++ {
		var d calDoc
		_ = json.Unmarshal(c.doc, &d) // the document is the benchmark's own: it decodes
		c.x += uint64(len(d.Updates))
	}
}

func (c *calibrator) sort() {
	copy(c.work, c.vals)
	sort.Float64s(c.work)
	c.x += uint64(c.work[0])
}

func (c *calibrator) heap() {
	c.pq = c.pq[:0]
	for i := 0; i < 3000; i++ {
		heap.Push(&c.pq, c.next()>>20)
	}
	for c.pq.Len() > 0 {
		c.x += heap.Pop(&c.pq).(uint64)
	}
}

// ping is 100 loopback round trips.
func (c *calibrator) ping() {
	for i := 0; i < 100 && c.err == nil; i++ {
		if _, c.err = c.conn.Write(c.buf); c.err == nil {
			_, c.err = io.ReadFull(c.conn, c.buf)
		}
	}
}

// hostSpeed times every reference kernel a few times on every calibrator
// at once — one per core, so the reference sees the whole machine, as the
// daemon does — and returns how much slower than nominal they ran: the
// geometric mean over kernels of mean time / nominal time. Call it only
// while the daemon is idle, or the daemon's own work is counted as a slow
// host.
func hostSpeed(cals []*calibrator) (float64, error) {
	const samples = 5
	ms := make([][]float64, len(cals)) // per calibrator, summed ms per kernel
	var wg sync.WaitGroup
	for i, c := range cals {
		ms[i] = make([]float64, len(refKernels))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := 0; s < samples; s++ {
				for k, kern := range refKernels {
					t := time.Now()
					kern.run(c)
					ms[i][k] += float64(time.Since(t)) / 1e6
				}
			}
		}()
	}
	wg.Wait()
	for _, c := range cals {
		if c.err != nil {
			return 0, fmt.Errorf("reference kernel ping: %w", c.err)
		}
	}
	logSum := 0.0
	for k, kern := range refKernels {
		mean := 0.0
		for i := range cals {
			mean += ms[i][k]
		}
		mean /= float64(samples * len(cals))
		logSum += math.Log(mean / kern.nominalMs)
	}
	return math.Exp(logSum / float64(len(refKernels))), nil
}
