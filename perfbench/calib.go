package main

import (
	"math/rand"
	"syscall"
	"time"
	"unsafe"
)

// The host this benchmark runs on changes speed by 20–40% over minutes,
// for reasons outside the process: a shared virtual machine's neighbours
// take cache, memory bandwidth and CPU (README.md has the measurements).
// Every timing is therefore reported at a reference host speed. Next to
// each timed piece of work the benchmark runs a fixed calibration kernel
// of its own, which calls no code of the repository, and scales the
// timing by refCalib ÷ the kernel's time: once after each tick window, and
// three times before each build and each durability cycle, on a freshly
// collected heap so that no collection runs beside the kernel. A change to
// the repository moves the work and not the kernel, so it still shows in
// full; a host that slows down slows both, and the two cancel.
//
// The kernel walks a random cycle through 64 MiB of 64-byte nodes, about
// the size of the tick workloads' live heap, updating each node's floats.
// The nodes live outside the Go heap, so the kernel neither allocates nor
// changes the heap or the garbage collector's pacing of the workload.
const (
	calibNodes = 1 << 20
	calibSteps = 50000
	// refCalib is the kernel's time on the reference host, about what it
	// takes on the 2-vCPU virtual machine the bounds were set on.
	refCalib = 10 * time.Millisecond
)

type calibNode struct {
	next int32
	_    int32
	v    [7]float64
}

var (
	calibMem []calibNode
	calibAt  int32
	// calibMs is every kernel time of the current run, in milliseconds,
	// for the host.calib_ms layer metric.
	calibMs []float64
)

// calibInit maps the kernel's nodes and links them into one random cycle.
func calibInit() error {
	b, err := syscall.Mmap(-1, 0, calibNodes*int(unsafe.Sizeof(calibNode{})),
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return err
	}
	calibMem = unsafe.Slice((*calibNode)(unsafe.Pointer(&b[0])), calibNodes)
	perm := rand.New(rand.NewSource(1)).Perm(calibNodes)
	for i, p := range perm {
		calibMem[p].next = int32(perm[(i+1)%calibNodes])
	}
	return nil
}

// hostScale runs the kernel runs times and returns the factor that takes
// a timing made now to the reference host: refCalib ÷ the median time.
func hostScale(runs int) float64 {
	from := len(calibMs)
	for r := 0; r < runs; r++ {
		start := time.Now()
		j := calibAt
		for i := 0; i < calibSteps; i++ {
			n := &calibMem[j]
			for k := range n.v {
				n.v[k] = 0.9*n.v[k] + 0.1*float64(k+i)
			}
			j = n.next
		}
		calibAt = j
		calibMs = append(calibMs, ms(time.Since(start)))
	}
	return ms(refCalib) / median(calibMs[from:])
}
