package shmem

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// Serial is an optional marker for Mem implementations whose objects are
// only ever accessed by one goroutine at a time. The deterministic
// simulator is serial: its scheduler keeps exactly one process coroutine
// runnable at any moment, so object bookkeeping (the lazy allocation tables
// behind comparators, splitter nodes, tournament nodes) can skip internal
// synchronization. The native runtime is concurrent and is not Serial.
type Serial interface {
	SerialMem()
}

// IsSerial reports whether mem declares its objects goroutine-confined. A
// Region inherits the answer from its parent runtime.
func IsSerial(mem Mem) bool {
	switch m := mem.(type) {
	case *Region:
		return m.serial
	case Serial:
		return true
	}
	return false
}

// LazyTable is a uint64-keyed table of lazily created shared objects. The
// constructions in this repository conceptually pre-allocate unbounded
// object families (an infinite splitter tree, a 2^32-wire network of
// comparators); a LazyTable materializes only the objects an execution
// touches. Allocation is bookkeeping outside the shared-memory model — no
// simulated steps are charged — but it sits on the hot path of every object
// access, so both implementations keep the lookup allocation-free:
//
//   - on Serial runtimes an unsynchronized open-addressing table (one
//     multiply-shift hash, linear probing, no per-entry allocation);
//   - otherwise the same open-addressing layout with lock-free lookups:
//     keys are atomic words, values are published before their key
//     (release/acquire through the key), inserts and growth serialize on a
//     mutex, and the table itself swaps copy-on-write. Lookups never lock,
//     never box the key (the previous sync.Map backing allocated a boxed
//     uint64 per lookup — one heap allocation per comparator access on the
//     native hot path), and each object is created exactly once per key as
//     far as any process can observe.
type LazyTable[V any] struct {
	// Serial path: open addressing with linear probing over key/value pairs
	// (co-located so a probe costs one cache line). Key 0 is the empty
	// sentinel; the rare real key 0 is stored in zeroVal instead.
	slots   []lazySlot[V]
	used    int
	shift   uint
	zeroVal V
	hasZero bool
	serial  bool

	// Concurrent path.
	tab     atomic.Pointer[lazyCTab[V]]
	zeroSet atomic.Bool // publishes zeroVal (written under mu)
	mu      sync.Mutex  // guards inserts and growth
	n       atomic.Int64
}

type lazySlot[V any] struct {
	key uint64
	val V
}

// lazyCTab is one immutable-capacity generation of the concurrent table.
// vals[i] is written before keys[i] is atomically set, so any reader that
// observes the key also observes the value (release/acquire on the key).
type lazyCTab[V any] struct {
	shift uint
	keys  []atomic.Uint64 // 0 = empty
	vals  []V
}

const lazyTableMinSize = 64 // power of two

// NewLazyTable returns a table whose synchronization matches mem.
func NewLazyTable[V any](mem Mem) *LazyTable[V] {
	t := &LazyTable[V]{}
	if IsSerial(mem) {
		t.serial = true
		t.slots = make([]lazySlot[V], lazyTableMinSize)
		t.shift = 64 - uint(bits.TrailingZeros(lazyTableMinSize))
	} else {
		t.tab.Store(newLazyCTab[V](lazyTableMinSize))
	}
	return t
}

func newLazyCTab[V any](size int) *lazyCTab[V] {
	return &lazyCTab[V]{
		shift: 64 - uint(bits.TrailingZeros(uint(size))),
		keys:  make([]atomic.Uint64, size),
		vals:  make([]V, size),
	}
}

// hash spreads a key over the table with a Fibonacci multiply-shift.
func (t *LazyTable[V]) hash(key uint64) uint64 {
	return (key * 0x9e3779b97f4a7c15) >> t.shift
}

func (c *lazyCTab[V]) hash(key uint64) uint64 {
	return (key * 0x9e3779b97f4a7c15) >> c.shift
}

// lookup probes one concurrent-table generation.
func (c *lazyCTab[V]) lookup(key uint64) (V, bool) {
	mask := uint64(len(c.keys) - 1)
	for i := c.hash(key); ; i = (i + 1) & mask {
		switch c.keys[i].Load() {
		case key:
			return c.vals[i], true
		case 0:
			var zero V
			return zero, false
		}
	}
}

// Lookup returns the object at key if it exists. The hit path takes no
// locks and allocates nothing (callers avoid closure-based get-or-create
// APIs deliberately: constructing a capturing closure per access costs an
// allocation on the hot path).
func (t *LazyTable[V]) Lookup(key uint64) (V, bool) {
	if t.serial {
		if key == 0 {
			return t.zeroVal, t.hasZero
		}
		mask := uint64(len(t.slots) - 1)
		for i := t.hash(key); ; i = (i + 1) & mask {
			s := &t.slots[i]
			if s.key == key {
				return s.val, true
			}
			if s.key == 0 {
				var zero V
				return zero, false
			}
		}
	}
	if key == 0 {
		if t.zeroSet.Load() {
			return t.zeroVal, true
		}
		var zero V
		return zero, false
	}
	return t.tab.Load().lookup(key)
}

// Insert publishes the object for key and returns the table's winner: v
// itself, or the object another goroutine published first. Callers create
// the object optimistically after a failed Lookup; a losing duplicate was
// never visible to any process, so discarding it is safe.
func (t *LazyTable[V]) Insert(key uint64, v V) V {
	if t.serial {
		if key == 0 {
			if t.hasZero {
				return t.zeroVal
			}
			t.zeroVal, t.hasZero = v, true
			return v
		}
		if 4*(t.used+1) > 3*len(t.slots) {
			t.grow()
		}
		mask := uint64(len(t.slots) - 1)
		for i := t.hash(key); ; i = (i + 1) & mask {
			s := &t.slots[i]
			if s.key == key {
				return s.val
			}
			if s.key == 0 {
				s.key, s.val = key, v
				t.used++
				return v
			}
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if key == 0 {
		if t.zeroSet.Load() {
			return t.zeroVal
		}
		t.zeroVal = v
		t.zeroSet.Store(true)
		t.n.Add(1)
		return v
	}
	c := t.tab.Load()
	// Re-check under the lock: another goroutine may have inserted key.
	if w, ok := c.lookup(key); ok {
		return w
	}
	if n := t.n.Load(); 4*(n+1) > 3*int64(len(c.keys)) {
		c = t.growConcurrent(c)
	}
	mask := uint64(len(c.keys) - 1)
	i := c.hash(key)
	for c.keys[i].Load() != 0 {
		i = (i + 1) & mask
	}
	c.vals[i] = v        // value first...
	c.keys[i].Store(key) // ...then the key that publishes it
	t.n.Add(1)
	return v
}

// grow doubles the serial table and rehashes every entry.
func (t *LazyTable[V]) grow() {
	old := t.slots
	t.slots = make([]lazySlot[V], 2*len(old))
	t.shift--
	mask := uint64(len(t.slots) - 1)
	for _, s := range old {
		if s.key == 0 {
			continue
		}
		i := t.hash(s.key)
		for t.slots[i].key != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = s
	}
}

// growConcurrent doubles the concurrent table (mu held): entries move to a
// fresh generation, which is published wholesale. Readers concurrently
// probing the old generation still see every entry inserted before the
// growth; they pick up the new generation on their next Lookup.
func (t *LazyTable[V]) growConcurrent(old *lazyCTab[V]) *lazyCTab[V] {
	next := newLazyCTab[V](2 * len(old.keys))
	mask := uint64(len(next.keys) - 1)
	for i := range old.keys {
		k := old.keys[i].Load()
		if k == 0 {
			continue
		}
		j := next.hash(k)
		for next.keys[j].Load() != 0 {
			j = (j + 1) & mask
		}
		next.vals[j] = old.vals[i]
		next.keys[j].Store(k)
	}
	t.tab.Store(next)
	return next
}

// Len returns the number of objects created so far (a space probe).
func (t *LazyTable[V]) Len() int {
	if t.serial {
		n := t.used
		if t.hasZero {
			n++
		}
		return n
	}
	return int(t.n.Load())
}
