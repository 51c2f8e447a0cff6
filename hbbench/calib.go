package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// A shared host's speed drifts: neighbours take CPU time, memory
// bandwidth and cache, and the clock frequency follows their load, so one
// commit's op times move by a quarter or more between runs minutes apart.
// The calibrator measures that drift inside each run. Every
// calibInterval it pauses the load (ops hold its gate shared, the kernel
// holds it exclusively), runs refKernel — fixed work written against the
// standard library only, so it is the same on every commit — and records
// the kernel's wall and thread CPU time. The timed metrics are then
// scaled by refNominal ÷ the run's median kernel time: they read in
// milliseconds at the speed of a host on which the kernel takes
// refNominal, and a host that runs everything 20% slower for a while
// leaves them about where they were. Time an op spends waiting rather
// than computing (an fsync, say) does not slow with the host, so on a
// slowed host the scaling shortens it too much; that error is the
// waiting share of the slowdown, where unscaled times carry all of it.
type calibrator struct {
	gate   sync.RWMutex
	kernel *refKernel

	// wall and cpu are written by the kernel loop and read once it has
	// finished.
	wall, cpu  []time.Duration
	stop, done chan struct{}
}

// calibInterval is the pause between two kernel runs. A kernel run takes
// about refNominal, so the kernel costs the load about 5% of a run.
const calibInterval = 100 * time.Millisecond

// refNominal is the kernel's wall and thread CPU time between the ops of
// a run on an idle 2-vCPU Xeon host; it sets the scale the calibrated
// metrics read in.
const refNominal = 5 * time.Millisecond

// newCalibrator builds the kernel's data; start begins measuring.
func newCalibrator() *calibrator {
	return &calibrator{kernel: newRefKernel(), stop: make(chan struct{}), done: make(chan struct{})}
}

func (c *calibrator) start() { go c.loop() }

func (c *calibrator) loop() {
	defer close(c.done)
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	t := time.NewTicker(calibInterval)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
		}
		c.gate.Lock()
		w0, c0 := time.Now(), threadCPU()
		c.kernel.run()
		cpu, wall := threadCPU()-c0, time.Since(w0)
		c.gate.Unlock()
		c.wall = append(c.wall, wall)
		c.cpu = append(c.cpu, cpu)
	}
}

// hold runs fn with the load's side of the gate held, so no kernel run
// overlaps it.
func (c *calibrator) hold(fn func()) {
	c.gate.RLock()
	defer c.gate.RUnlock()
	fn()
}

// finish stops the kernel loop, waits for it to end and frees the
// kernel's data.
func (c *calibrator) finish() {
	close(c.stop)
	<-c.done
	syscall.Munmap(c.kernel.mem)
}

// wallScale and cpuScale are the factors that bring this run's wall and
// CPU times to the nominal host's speed.
func (c *calibrator) wallScale() float64 { return scale(c.wall) }
func (c *calibrator) cpuScale() float64  { return scale(c.cpu) }

func scale(ds []time.Duration) float64 {
	if len(ds) == 0 {
		return 1
	}
	return refNominal.Seconds() / median(durationsSeconds(ds))
}

// wallUsed and cpuUsed are the kernel's total wall and CPU time, which
// the run's throughput and CPU figures leave out.
func (c *calibrator) wallUsed() time.Duration { return total(c.wall) }
func (c *calibrator) cpuUsed() time.Duration  { return total(c.cpu) }

func total(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

// runs is how many times the kernel ran.
func (c *calibrator) runs() int { return len(c.wall) }

// refKernel is the calibration work: the kinds of step the analyzer's
// layers are made of — a dependent walk and hashed probes through 12 MiB,
// a streaming copy, a sort, and formatting and hashing numbers as text. Its data lives in one anonymous mapping outside
// the Go heap, built once: a run allocates nothing, and the kernel neither
// triggers the garbage collector nor changes its pacing of the program's
// heap.
type refKernel struct {
	mem      []byte   // the mapping; every page is touched at build
	next     []uint32 // a single cycle through all entries
	slots    []uint64 // open-addressed hash set, half full
	src, dst []uint64
	sortSrc  []int32
	sortBuf  []int32
	text     []byte
	sink     uint64
}

const (
	refWalkLen   = 1 << 20 // 4 MiB of uint32
	refWalkSteps = 16000
	refSlots     = 1 << 20 // 8 MiB of uint64
	refKeys      = refSlots / 2
	refProbes    = 16000
	refStreamLen = 1 << 19 // 4 MiB of uint64, copied once per run
	refSortLen   = 8192
	refNumbers   = 4000
)

// refKernelBytes is the size of the kernel's mapping, which peak_rss_mb
// leaves out.
const refKernelBytes = 4*refWalkLen + 8*refSlots + 2*8*refStreamLen + 2*4*refSortLen

func newRefKernel() *refKernel {
	mem, err := syscall.Mmap(-1, 0, refKernelBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic(fmt.Sprintf("map calibration kernel: %v", err))
	}
	rest := mem
	carve := func(n int) unsafe.Pointer {
		p := unsafe.Pointer(&rest[0])
		rest = rest[n:]
		return p
	}
	k := &refKernel{mem: mem, text: make([]byte, 0, 32)}
	k.next = unsafe.Slice((*uint32)(carve(4*refWalkLen)), refWalkLen)
	k.slots = unsafe.Slice((*uint64)(carve(8*refSlots)), refSlots)
	k.src = unsafe.Slice((*uint64)(carve(8*refStreamLen)), refStreamLen)
	k.dst = unsafe.Slice((*uint64)(carve(8*refStreamLen)), refStreamLen)
	k.sortSrc = unsafe.Slice((*int32)(carve(4*refSortLen)), refSortLen)
	k.sortBuf = unsafe.Slice((*int32)(carve(4*refSortLen)), refSortLen)

	rng := rand.New(rand.NewSource(1))
	// Sattolo's shuffle of the identity gives one cycle through every
	// entry, so the walk never settles into a short loop.
	for i := range k.next {
		k.next[i] = uint32(i)
	}
	for i := len(k.next) - 1; i > 0; i-- {
		j := rng.Intn(i)
		k.next[i], k.next[j] = k.next[j], k.next[i]
	}
	for i := uint64(1); i <= refKeys; i++ {
		h := refHash(i)
		for k.slots[h&(refSlots-1)] != 0 {
			h++
		}
		k.slots[h&(refSlots-1)] = i
	}
	for i := range k.src {
		k.src[i] = rng.Uint64()
	}
	for i := range k.sortSrc {
		k.sortSrc[i] = rng.Int31()
	}
	return k
}

// refHash is a 64-bit mixer (the splitmix64 finaliser).
func refHash(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// run does one unit of calibration work.
func (k *refKernel) run() {
	var acc uint64
	p := uint32(0)
	for i := 0; i < refWalkSteps; i++ {
		p = k.next[p]
	}
	acc += uint64(p)
	for i := uint64(0); i < refProbes; i++ {
		key := 1 + refHash(acc+i)%refKeys
		h := refHash(key)
		for k.slots[h&(refSlots-1)] != key {
			h++
		}
		acc += h
	}
	copy(k.dst, k.src)
	acc += k.dst[acc%refStreamLen]
	copy(k.sortBuf, k.sortSrc)
	slices.Sort(k.sortBuf)
	acc += uint64(k.sortBuf[refSortLen/2])
	h := uint64(14695981039346656037)
	for i := 0; i < refNumbers; i++ {
		k.text = strconv.AppendInt(k.text[:0], int64(acc)+int64(i)*7919, 10)
		for _, b := range k.text {
			h = (h ^ uint64(b)) * 1099511628211
		}
	}
	k.sink += acc ^ h
}

// threadCPU returns the CPU time of the calling OS thread
// (CLOCK_THREAD_CPUTIME_ID).
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(fmt.Sprintf("clock_gettime(CLOCK_THREAD_CPUTIME_ID): %v", errno))
	}
	return time.Duration(ts.Nano())
}
