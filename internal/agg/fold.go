// The step tail (DESIGN.md §9, "Step tail: an ordered fold"). Partials leave
// a step as frames and are never assembled into one store on the way: a
// frame is a complete payload of the wire codec (binary.go) holding a run of
// ascending keys, the frames of one sender carry strictly ascending,
// disjoint key ranges, and their entries concatenated are the entry list
// Encode would have written for the sender's merged store. Key order is what
// makes both reductions of the aggregation primitive streaming: a worker
// walks its cores' stores and the master walks its workers' frame sequences
// with the same ordered fold, and each holds one key's values at a time.
package agg

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"unsafe"

	"fractal/internal/wire"
)

// frameBufs holds FoldToFrames' frame buffer between folds: a frame is valid
// during its emit only, so a worker's folds — one per aggregation and step —
// share one buffer instead of each growing its own to the frame size.
var frameBufs = sync.Pool{New: func() any { return new([]byte) }}

// FrameLimit is the number of entry bytes at which FoldToFrames closes a
// frame. A frame ends with the entry that reaches it, so a frame is larger
// only by its last entry. 64 KiB keeps a frame inside one socket buffer and
// the sender's working set at one such buffer, whatever the payload.
const FrameLimit = 64 << 10

// frameHeaderMax is the room FoldToFrames leaves in front of a frame's
// entries for the tag byte and the entry count, which is known last.
const frameHeaderMax = 1 + binary.MaxVarintLen64

// source is one key-sorted input of an ordered fold: the keys of a store,
// sorted, or the entries of a sender's frames.
type source[V any] interface {
	// head returns the key of the current entry; ok is false once the source
	// is exhausted or has failed.
	head() (key string, ok bool)
	// pop returns the current entry's value and moves to the next entry.
	pop() V
	// err returns the failure that ended the source early, if any.
	err() error
}

// foldOrdered hands sink every key of srcs once, in ascending order, with
// the values the sources hold for it reduced in source order. Sources are
// few (a worker's cores, a master's workers), so the smallest head is found
// by scanning them. A key held by several sources is reduced into the value
// popped first, which no source holds any more: the sink keeps the result
// (own) or releases it.
func (a *Aggregation[K, V]) foldOrdered(srcs []source[V], sink func(key string, v V) error) error {
	for {
		min, found := "", false
		for _, s := range srcs {
			if e := s.err(); e != nil {
				return e
			}
			if k, ok := s.head(); ok && (!found || k < min) {
				min, found = k, true
			}
		}
		if !found {
			return nil
		}
		var acc V
		first := true
		for _, s := range srcs {
			if k, ok := s.head(); !ok || k != min {
				continue
			}
			if v := s.pop(); first {
				acc, first = v, false
			} else {
				acc = a.reduce(acc, v)
			}
		}
		if err := sink(min, acc); err != nil {
			return err
		}
	}
}

// mapSource walks a store in key order and empties it as it goes, so a
// value is the fold's as soon as its key has been popped.
type mapSource[V any] struct {
	m    map[string]V
	keys []string
}

func newMapSource[V any](m map[string]V) *mapSource[V] {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return &mapSource[V]{m: m, keys: keys}
}

func (s *mapSource[V]) head() (string, bool) {
	if len(s.keys) == 0 {
		return "", false
	}
	return s.keys[0], true
}

func (s *mapSource[V]) pop() V {
	k := s.keys[0]
	s.keys = s.keys[1:]
	v := s.m[k]
	delete(s.m, k)
	return v
}

func (s *mapSource[V]) err() error { return nil }

// frameSource walks the entries of one sender's frames. It checks what the
// sender promises: each frame is a well-formed payload, and keys ascend
// strictly within and across frames, so no key can be folded twice. A
// failure is the frame reader's own sticky error. Keys are views of the
// frames, which nothing writes to; a key that is kept is copied.
type frameSource[V any] struct {
	frames [][]byte
	vc     valueCodec[V]
	stop   func() bool

	r         *wire.Reader // the frame being read; nil before the first
	left      int          // entries of r not yet read
	key       string       // the last key read; its value is next in r while more
	more      bool         // key is the current entry's
	seen      bool         // a key has been read
	cancelled bool
}

func newFrameSource[V any](frames [][]byte, vc valueCodec[V], stop func() bool) *frameSource[V] {
	s := &frameSource[V]{frames: frames, vc: vc, stop: stop}
	s.advance()
	return s
}

// advance reads the next entry's key, stepping over frame boundaries; stop
// is polled at each.
func (s *frameSource[V]) advance() {
	s.more = false
	for s.left == 0 {
		if s.r != nil && s.r.Done() != nil {
			return
		}
		if len(s.frames) == 0 {
			return
		}
		if s.stop != nil && s.stop() {
			s.cancelled = true
			return
		}
		s.r = payloadReader(s.frames[0], s.vc.tag)
		s.frames = s.frames[1:]
		s.left = s.r.Count()
	}
	view := s.r.View()
	k := unsafe.String(unsafe.SliceData(view), len(view))
	if s.seen && k <= s.key {
		s.r.Failf("key %q out of order", k)
	}
	if s.r.Err() != nil {
		return
	}
	s.key, s.more, s.seen = k, true, true
	s.left--
}

func (s *frameSource[V]) head() (string, bool) { return s.key, s.more }

func (s *frameSource[V]) pop() V {
	v := s.vc.get(s.r)
	s.advance()
	return v
}

func (s *frameSource[V]) err() error {
	switch {
	case s.cancelled:
		return ErrMergeCancelled
	case s.r != nil:
		return s.r.Err()
	}
	return nil
}

// FoldToFrames implements Store: the ordered fold over a worker's per-core
// stores, written through the value codec into one reused frame buffer.
func (a *Aggregation[K, V]) FoldToFrames(parts []Store, stop func() bool, emit func(frame []byte) error) error {
	return a.foldToFrames(parts, FrameLimit, stop, emit)
}

func (a *Aggregation[K, V]) foldToFrames(parts []Store, limit int, stop func() bool, emit func(frame []byte) error) error {
	view, vc, err := a.wireForm()
	if err != nil {
		return err
	}
	srcs := make([]source[V], 0, len(parts))
	for _, p := range parts {
		if p == nil {
			continue
		}
		o, ok := p.(*Aggregation[K, V])
		if !ok {
			return fmt.Errorf("agg: folding %T into frames of %T", p, a)
		}
		srcs = append(srcs, newMapSource(any(o.m).(map[string]V)))
	}
	// The buffer grows to the frame size on its own, once per process: most
	// aggregations are a handful of counts and never come near the limit.
	buf := frameBufs.Get().(*[]byte)
	w := wire.Writer{B: slices.Grow((*buf)[:0], 512)[:frameHeaderMax]}
	defer func() { *buf = w.B[:0]; frameBufs.Put(buf) }()
	entries, frames := 0, 0
	// flush closes the frame: the header is written right-aligned in the room
	// in front of the entries, so the frame leaves without being moved.
	flush := func() error {
		if stop != nil && stop() {
			return ErrMergeCancelled
		}
		var count [binary.MaxVarintLen64]byte
		n := binary.PutUvarint(count[:], uint64(entries))
		start := frameHeaderMax - n - 1
		w.B[start] = vc.tag
		copy(w.B[start+1:], count[:n])
		err := emit(w.B[start:])
		w.B, entries = w.B[:frameHeaderMax], 0
		frames++
		return err
	}
	err = view.foldOrdered(srcs, func(k string, v V) error {
		w.Str(k)
		var err error
		w.B, err = vc.put(w.B, v)
		if view.life != nil {
			view.life.release(v)
		}
		if err != nil {
			return fmt.Errorf("agg: encoding entry %q: %w", k, err)
		}
		if entries++; len(w.B)-frameHeaderMax >= limit {
			return flush()
		}
		return nil
	})
	if err != nil {
		return err
	}
	if entries > 0 || frames == 0 {
		return flush()
	}
	return nil
}

// FoldFrames implements Store: the ordered fold over the workers' frame
// sequences. A key's values are decoded into pooled storage, reduced and
// put to the aggFilter there and then; only survivors are kept — their key
// and pattern copied out of the frames, their decoded domains as they are —
// and the rest is released.
func (a *Aggregation[K, V]) FoldFrames(seqs [][][]byte, stop func() bool) (Store, error) {
	view, vc, err := a.wireForm()
	if err != nil {
		return nil, err
	}
	out := a.NewEmpty().(*Aggregation[K, V])
	m := any(out.m).(map[string]V)
	keep, _ := any(a.filter).(func(string, V) bool)
	srcs := make([]source[V], len(seqs))
	for i, frames := range seqs {
		srcs[i] = newFrameSource(frames, vc, stop)
	}
	err = view.foldOrdered(srcs, func(k string, v V) error {
		switch {
		case keep == nil || keep(k, v):
			if view.life != nil {
				v = view.life.own(v)
			}
			m[strings.Clone(k)] = v
		case view.life != nil:
			view.life.release(v)
		}
		return nil
	})
	if err != nil {
		if errors.Is(err, ErrMergeCancelled) {
			return nil, err
		}
		return nil, fmt.Errorf("agg: folding frames into %T: %w", a.m, err)
	}
	return out, nil
}
