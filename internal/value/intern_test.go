package value

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"
	"unsafe"
)

// TestValueIsPointerFree pins the representation every row slab relies on to
// stay out of the collector's mark phase: 16 bytes, no pointer anywhere.
func TestValueIsPointerFree(t *testing.T) {
	if size := unsafe.Sizeof(Value{}); size != 16 {
		t.Errorf("Value is %d bytes, want 16", size)
	}
	var walk func(reflect.Type) bool
	walk = func(typ reflect.Type) bool {
		switch typ.Kind() {
		case reflect.Pointer, reflect.UnsafePointer, reflect.String, reflect.Slice, reflect.Map,
			reflect.Chan, reflect.Func, reflect.Interface:
			return true
		case reflect.Array:
			return walk(typ.Elem())
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				if walk(typ.Field(i).Type) {
					t.Errorf("field %s of %s holds a pointer", typ.Field(i).Name, typ)
					return true
				}
			}
		}
		return false
	}
	walk(reflect.TypeOf(Value{}))
}

// TestInternConcurrent interns overlapping texts from eight goroutines, by
// string and by bytes, while reading texts back: every text ends up with
// exactly one id and every id reads back as its text. Run it under -race.
func TestInternConcurrent(t *testing.T) {
	const workers, texts = 8, 500
	got := make([]map[string]Value, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			seen := map[string]Value{}
			for i := range texts {
				s := fmt.Sprintf("intern-test-%d", (i*7+w*61)%texts)
				v := NewString(s)
				if w%2 == 1 {
					v = NewStringBytes([]byte(s))
				}
				if v.Str() != s || v.String() != s {
					t.Errorf("%q interned reads back as %q", s, v.Str())
				}
				seen[s] = v
			}
			got[w] = seen
		}()
	}
	wg.Wait()
	ids := map[Value]string{}
	for _, seen := range got {
		for s, v := range seen {
			if other, ok := ids[v]; ok && other != s {
				t.Fatalf("%q and %q share one id", s, other)
			}
			ids[v] = s
			if v != got[0][s] { // every worker interns every text
				t.Fatalf("%q has two ids", s)
			}
		}
	}
	if len(ids) != texts {
		t.Errorf("%d ids for %d texts", len(ids), texts)
	}
}

// TestInternedReadsAllocateNothing: a dictionary hit by bytes, and reading a
// string value's text, cost no allocation; NewString never keeps its
// argument's memory.
func TestInternedReadsAllocateNothing(t *testing.T) {
	b := []byte("United States")
	want := NewStringBytes(b)
	if allocs := testing.AllocsPerRun(100, func() {
		if NewStringBytes(b) != want {
			t.Fatal("one text, two ids")
		}
	}); allocs != 0 {
		t.Errorf("NewStringBytes hit: %v allocations, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if want.String() != "United States" || want.Str() != "United States" {
			t.Fatal("text changed")
		}
	}); allocs != 0 {
		t.Errorf("String/Str: %v allocations, want 0", allocs)
	}
	b[0] = 'X' // the dictionary copied the bytes it was handed
	if want.Str() != "United States" {
		t.Errorf("interned text follows the caller's buffer: %q", want.Str())
	}
}

// TestGobRoundTrip carries values through encoding/gob as text and
// payload bits, never as dictionary ids.
func TestGobRoundTrip(t *testing.T) {
	in := Row{
		NewNull(), NewInt(-42), NewInt(math.MinInt64), NewFloat(math.NaN()),
		NewFloat(math.Copysign(0, -1)), NewFloat(math.Inf(1)), NewString(""), NewString("Zürich ✓"),
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(in); err != nil {
		t.Fatal(err)
	}
	var out Row
	if err := gob.NewDecoder(&buf).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("%d values back, sent %d", len(out), len(in))
	}
	for i := range in {
		if out[i] != in[i] || out[i].String() != in[i].String() {
			t.Errorf("value %d: sent %v (%v), got %v (%v)", i, in[i], in[i].K, out[i], out[i].K)
		}
	}
	if math.Signbit(out[4].Float64()) != true {
		t.Error("-0.0 lost its sign")
	}
	var v Value
	for _, bad := range [][]byte{nil, {byte(Int), 1, 2}, {9}} {
		if err := v.GobDecode(bad); err == nil {
			t.Errorf("GobDecode(%v) accepted a malformed encoding", bad)
		}
	}
}
