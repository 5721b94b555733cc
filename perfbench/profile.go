package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// modules are the self-time buckets, in print order. Every CPU sample
// lands in exactly one.
var modules = []string{
	"sim", "runtime-sched", "runtime-gc", "cache", "bus", "monitor", "core",
	"copier", "workload", "memory", "serve", "net-http", "encoding-json", "other",
}

// packageModule maps a Go package path to its bucket. Packages not
// listed fall into "other".
var packageModule = map[string]string{
	"vmp/internal/sim":       "sim",
	"vmp/internal/cache":     "cache",
	"vmp/internal/bus":       "bus",
	"vmp/internal/busop":     "bus",
	"vmp/internal/monitor":   "monitor",
	"vmp/internal/core":      "core",
	"vmp/internal/protocol":  "core",
	"vmp/internal/check":     "core",
	"vmp/internal/vm":        "core",
	"vmp/internal/copier":    "copier",
	"vmp/internal/workload":  "workload",
	"vmp/internal/trace":     "workload",
	"vmp/internal/memory":    "memory",
	"vmp/internal/serve":     "serve",
	"vmp/internal/telemetry": "serve",
	"encoding/json":          "encoding-json",
}

// gcFrames are runtime functions (by prefix) whose presence in a
// sample's runtime frames makes it allocation or garbage-collection
// time.
var gcFrames = []string{
	"runtime.mallocgc", "runtime.gc", "runtime.bgsweep", "runtime.bgscavenge",
	"runtime.sweepone", "runtime.markroot", "runtime.scanobject", "runtime.greyobject",
	"runtime.(*gcWork)", "runtime.(*mheap)", "runtime.(*mcache)", "runtime.(*mcentral)",
	"runtime.wbBuf", "runtime.bulkBarrier", "runtime.growslice", "runtime.newobject",
	"runtime.makeslice", "runtime.makemap",
}

// schedFrames are runtime functions (by prefix) that switch, park, wake
// or hand off goroutines: the scheduler and channel machinery.
var schedFrames = []string{
	"runtime.chan", "runtime.select", "runtime.gopark", "runtime.goready", "runtime.ready",
	"runtime.schedule", "runtime.findRunnable", "runtime.park_m", "runtime.mcall",
	"runtime.newproc", "runtime.goexit", "runtime.gosched", "runtime.wakep", "runtime.startm",
	"runtime.stopm", "runtime.casgstatus", "runtime.netpoll", "runtime.notesleep",
	"runtime.futex", "runtime.lock", "runtime.unlock", "runtime.mstart", "runtime.sysmon",
	"runtime.runqget", "runtime.runqput", "runtime.resetspinning", "runtime.execute",
}

// selfShares decodes a CPU profile and returns each module's share of
// the sampled CPU time, in percent, and the number of samples.
//
// A sample is charged to the package of its innermost frame. Samples
// whose innermost frames are in the Go runtime are split three ways: to
// runtime-gc when those runtime frames allocate or collect, to
// runtime-sched when they schedule goroutines or no program frame sits
// above them, and otherwise (memmove, map access and other helpers) to
// the program package that called into the runtime.
func selfShares(gz []byte) (map[string]float64, int, error) {
	p, err := parseProfile(gz)
	if err != nil {
		return nil, 0, err
	}
	ns := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		var stack []string
		for _, id := range s.locs {
			stack = append(stack, p.locFuncs[id]...)
		}
		ns[classify(stack)] += s.value
		total += s.value
	}
	shares := make(map[string]float64, len(modules))
	for _, m := range modules {
		shares[m] = 100 * ratio(float64(ns[m]), float64(total))
	}
	return shares, len(p.samples), nil
}

// classify picks the bucket for one stack, innermost frame first. A
// sample without symbolized frames goes to "other".
func classify(stack []string) string {
	if len(stack) == 0 {
		return "other"
	}
	rt := 0
	for rt < len(stack) && isRuntime(pkgOf(stack[rt])) {
		rt++
	}
	if rt == 0 {
		return moduleOf(pkgOf(stack[0]))
	}
	frames := stack[:rt]
	switch {
	case anyPrefix(frames, gcFrames):
		return "runtime-gc"
	case rt == len(stack) || anyPrefix(frames, schedFrames):
		return "runtime-sched"
	}
	return moduleOf(pkgOf(stack[rt]))
}

func anyPrefix(frames, prefixes []string) bool {
	for _, f := range frames {
		for _, p := range prefixes {
			if strings.HasPrefix(f, p) {
				return true
			}
		}
	}
	return false
}

func isRuntime(pkg string) bool {
	return pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/")
}

func moduleOf(pkg string) string {
	if m, ok := packageModule[pkg]; ok {
		return m
	}
	if pkg == "net" || strings.HasPrefix(pkg, "net/") || strings.HasPrefix(pkg, "vendor/golang.org/x/net/") {
		return "net-http"
	}
	return "other"
}

// pkgOf extracts the package path from a symbol name such as
// "vmp/internal/sim.(*Engine).RunUntil" or "slices.Sort[go.shape.int]".
func pkgOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	if i := strings.IndexByte(fn[slash+1:], '.'); i >= 0 {
		return fn[:slash+1+i]
	}
	return fn
}

// profile is the part of a pprof profile selfShares needs.
type profile struct {
	samples  []sample
	locFuncs map[uint64][]string // location id -> function names, innermost first
}

type sample struct {
	locs  []uint64 // innermost first
	value int64    // the last sample value: CPU nanoseconds
}

// parseProfile decodes a gzipped profile.proto message (the format
// runtime/pprof writes), keeping samples, locations and function names.
func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	var strs []string
	funcName := map[uint64]int64{} // function id -> string index
	locLines := map[uint64][]uint64{}
	var samples []sample
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			var vals []uint64
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					return repeated(&s.locs, v, b)
				case 2:
					return repeated(&vals, v, b)
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(vals) > 0 {
				s.value = int64(vals[len(vals)-1])
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var funcs []uint64
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return fields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							funcs = append(funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locLines[id] = funcs
		case 5: // Function
			var id uint64
			var name int64
			err := fields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p := &profile{samples: samples, locFuncs: map[uint64][]string{}}
	for id, funcs := range locLines {
		for _, f := range funcs {
			name := ""
			if i := funcName[f]; i >= 0 && int(i) < len(strs) {
				name = strs[i]
			}
			p.locFuncs[id] = append(p.locFuncs[id], name)
		}
	}
	return p, nil
}

var errTruncated = errors.New("truncated protobuf")

// fields walks one protobuf message, calling fn with each field's
// number and either its varint value or its length-delimited bytes.
// Fixed-width fields are skipped.
func fields(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("protobuf wire type %d", wire)
		}
		if err := fn(num, v, data); err != nil {
			return err
		}
	}
	return nil
}

// repeated appends a repeated integer field's values, packed (data) or
// not (v).
func repeated(dst *[]uint64, v uint64, data []byte) error {
	if data == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errTruncated
		}
		*dst = append(*dst, x)
		data = data[n:]
	}
	return nil
}
