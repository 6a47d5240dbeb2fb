package value

import (
	"strings"
	"sync"
	"sync/atomic"
)

// dict is the process-wide, append-only string dictionary behind every
// String value: text → id through a map under one mutex, id → text by a
// lock-free read of the published slice. It is the package's only mutable
// state. Interning is idempotent and ids never leave the process — wire,
// WAL, snapshot, audit and gob all carry text — so one dictionary serves
// every store, client and market in it.
//
// It keeps every distinct string the process has seen. For data that is
// text the never-evicting store holds anyway, now once per distinct value
// rather than once per cell; a SQL literal that matches no data adds its
// text once.
var dict = newDictionary()

type dictionary struct {
	mu  sync.Mutex
	ids map[string]uint64
	// texts is indexed by id. Writers append under mu; an entry below a
	// published length is never written again, so readers need no lock.
	texts atomic.Pointer[[]string]
}

func newDictionary() *dictionary {
	d := &dictionary{ids: map[string]uint64{}}
	d.texts.Store(new([]string))
	d.add("") // id 0, so Value{K: String} is the empty string
	return d
}

// internString returns the id of s, interning a copy of s on a miss so a
// caller's buffer is never retained.
func internString(s string) uint64 {
	dict.mu.Lock()
	id, ok := dict.ids[s]
	if !ok {
		id = dict.add(strings.Clone(s))
	}
	dict.mu.Unlock()
	return id
}

// internBytes returns the id of the text b; a hit allocates nothing.
func internBytes(b []byte) uint64 {
	dict.mu.Lock()
	id, ok := dict.ids[string(b)]
	if !ok {
		id = dict.add(string(b))
	}
	dict.mu.Unlock()
	return id
}

// add appends s with the next id and publishes it; the caller holds mu.
func (d *dictionary) add(s string) uint64 {
	texts := append(*d.texts.Load(), s)
	d.ids[s] = uint64(len(texts) - 1)
	d.texts.Store(&texts)
	return uint64(len(texts) - 1)
}

// lookup returns the text of id.
func lookup(id uint64) string { return (*dict.texts.Load())[id] }
