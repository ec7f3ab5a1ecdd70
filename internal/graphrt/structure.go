package graphrt

import (
	"context"
	"encoding/binary"
	"math"
	"sync"

	"mikpoly/internal/nn"
)

// structure is the execution structure derived from one graph's content: its
// validated stage schedule, flattened, and its global-memory plan. Entries
// are immutable and shared by every execution of equal content.
type structure struct {
	// order lists op indices stage by stage; stage s is
	// order[bounds[s]:bounds[s+1]].
	order  []int32
	bounds []int32
	mem    MemReport
}

func newStructure(stages [][]int, mem MemReport) *structure {
	st := &structure{bounds: make([]int32, 1, len(stages)+1), mem: mem}
	n := 0
	for _, stage := range stages {
		n += len(stage)
	}
	st.order = make([]int32, 0, n)
	for _, stage := range stages {
		for _, i := range stage {
			st.order = append(st.order, int32(i))
		}
		st.bounds = append(st.bounds, int32(len(st.order)))
	}
	return st
}

func (s *structure) numStages() int { return len(s.bounds) - 1 }

func (s *structure) stage(i int) []int32 { return s.order[s.bounds[i]:s.bounds[i+1]] }

// structCacheCap bounds the structure cache. Sized from the repository
// benchmark's traffic (perfbench, 30 s runs): llm-generate executes 20–21
// distinct decode structures (94% of its executions) and ~250 prefill chunk
// structures, model-dynseq ~1,100 (model, dims) structures under Zipf draws.
// With LRU eviction 64 entries keep every hot decode structure (99.8% of
// decode executions hit, 97% of all llm-generate executions) and half of
// model-dynseq's, at ~6 KiB per Llama entry (~0.4 MiB full).
const structCacheCap = 64

// structEntry is one cached structure and its recency.
type structEntry struct {
	st   *structure
	used uint64 // Runtime.structTick at the entry's last use
}

// keyBufs recycles structure-key scratch buffers: a deep model's key runs to
// kilobytes, which a per-execution allocation would pay on every call.
var keyBufs = sync.Pool{New: func() any {
	b := make([]byte, 0, 4096)
	return &b
}}

// structureOf returns g's execution structure. Validation, the stage
// schedule and the memory plan run only the first time g's content is seen;
// an invalid graph returns its error on every call and is never cached.
func (r *Runtime) structureOf(ctx context.Context, g nn.Graph) (*structure, error) {
	bp := keyBufs.Get().(*[]byte)
	defer keyBufs.Put(bp)
	key := appendStructureKey((*bp)[:0], g)
	*bp = key
	r.mu.Lock()
	e, ok := r.structs[string(key)]
	if ok {
		r.structTick++
		e.used = r.structTick
	}
	r.mu.Unlock()
	if ok {
		return e.st, nil
	}

	stages, err := g.Schedule()
	if err != nil {
		return nil, err
	}
	_, msp := r.o.T().Start(ctx, "graphrt.memplan")
	st := newStructure(stages, planMemory(g, stages, r.h))
	msp.Attr("buffers", float64(st.mem.Buffers)).
		Attr("spill_bytes", st.mem.SpillBytes).End()

	r.mu.Lock()
	defer r.mu.Unlock()
	r.structTick++
	if e, ok := r.structs[string(key)]; ok {
		// A concurrent miss derived the same content first.
		e.used = r.structTick
		return e.st, nil
	}
	if len(r.structs) >= structCacheCap {
		// Evict the least recently used entry. The scan is bounded by the
		// cap and runs only on a miss, which has just paid a derivation.
		var lru string
		oldest := ^uint64(0)
		for k, e := range r.structs {
			if e.used < oldest {
				lru, oldest = k, e.used
			}
		}
		delete(r.structs, lru)
	}
	r.structs[string(key)] = &structEntry{st: st, used: r.structTick}
	return st, nil
}

// appendStructureKey appends the content key of g's structure to b: every op
// field that validation, the schedule or the memory plan reads, plus DType,
// self-delimiting so distinct contents never share a key. Names are left
// out, so a renamed copy shares its original's entry. Conv geometry is
// encoded for OpConv only, the one kind that reads it; Inputs encode nil
// (the chain default) apart from an explicit empty list (a source op).
func appendStructureKey(b []byte, g nn.Graph) []byte {
	b = binary.AppendUvarint(b, uint64(len(g.Ops)))
	for _, op := range g.Ops {
		b = binary.AppendVarint(b, int64(op.Kind))
		b = binary.AppendVarint(b, int64(op.Gemm.M))
		b = binary.AppendVarint(b, int64(op.Gemm.N))
		b = binary.AppendVarint(b, int64(op.Gemm.K))
		if op.Kind == nn.OpConv {
			c := op.Conv
			for _, v := range [...]int{c.Batch, c.InC, c.InH, c.InW, c.OutC, c.KH, c.KW, c.Stride, c.Pad} {
				b = binary.AppendVarint(b, int64(v))
			}
		}
		b = binary.AppendVarint(b, int64(op.Count))
		b = binary.AppendUvarint(b, math.Float64bits(op.OtherBytes))
		b = appendString(b, op.Elementwise)
		b = appendString(b, op.DType)
		if op.Inputs == nil {
			b = append(b, 0)
		} else {
			b = binary.AppendUvarint(b, uint64(len(op.Inputs))+1)
			for _, d := range op.Inputs {
				b = binary.AppendVarint(b, int64(d))
			}
		}
	}
	return b
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}
