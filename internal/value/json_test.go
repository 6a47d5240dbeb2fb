package value

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"
)

// TestAppendJSONStringIsEncodingJSON: the hand-written string encoder the
// wire, paylessd's responses and the store's log frames and snapshots share
// writes what encoding/json writes, byte for byte: quotes, backslashes, every control character, HTML's <>&,
// invalid UTF-8, U+2028/U+2029 and multi-byte text, then random bytes.
func TestAppendJSONStringIsEncodingJSON(t *testing.T) {
	corpus := []string{
		"", "plain", `"quoted"`, `back\slash`, "<a href='x'>&amp;</a>", "\x7f\x80\xff",
		"tab\tnl\nret\rbs\bff\f", "\u2028\u2029", "héllo wörld ✓ 😀", "\xed\xa0\x80", "\xef\xbf\xbd",
		"trailing \xe2\x82", "NULL",
	}
	for c := 0; c < 0x20; c++ {
		corpus = append(corpus, string(rune(c))+"x")
	}
	check := func(s string) bool {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		got := AppendJSONString([]byte("prefix"), s)
		if string(got) != "prefix"+string(want) {
			t.Errorf("%q: got %s, encoding/json writes %s", s, got[len("prefix"):], want)
			return false
		}
		return true
	}
	for _, s := range corpus {
		check(s)
	}
	rng := rand.New(rand.NewSource(1))
	alphabet := []byte("a\"\\<>&\x00\x1f\x7f\xc3\xa9\xe2\x80\xa8\xf0\x9f\x98\x80\xff")
	for i := 0; i < 2000; i++ {
		b := make([]byte, rng.Intn(12))
		for j := range b {
			b[j] = alphabet[rng.Intn(len(alphabet))]
		}
		if !check(string(b)) {
			break
		}
	}
}

// TestAppendJSONIsEncodingJSON: a cell and a row append what encoding/json
// writes for their old reflective form, a *string per cell holding
// Value.String and nil for NULL: every kind, NaN, ±Inf, -0 and ±2⁶³.
func TestAppendJSONIsEncodingJSON(t *testing.T) {
	cells := Row{
		{}, NewInt(0), NewInt(-1), NewInt(math.MaxInt64), NewInt(math.MinInt64),
		NewFloat(0), NewFloat(math.Copysign(0, -1)), NewFloat(math.NaN()), NewFloat(math.Inf(1)),
		NewFloat(math.Inf(-1)), NewFloat(1e21), NewFloat(-1.5e-7), NewFloat(0x1p63), NewFloat(-0x1p63),
		NewString(""), NewString("NULL"), NewString("<a>&\"\\\x00\x1f\xff\u2028\u2029é"),
	}
	old := make([]*string, len(cells))
	for i, v := range cells {
		if v.K != Null {
			s := v.String()
			old[i] = &s
		}
		want, _ := json.Marshal(old[i])
		if got := v.AppendJSON([]byte("x")); string(got) != "x"+string(want) {
			t.Errorf("%v (%v): got %s, encoding/json writes %s", v, v.K, got[1:], want)
		}
	}
	for _, r := range []Row{cells, {}, cells[:1]} {
		want, _ := json.Marshal(old[:len(r)])
		if got := r.AppendJSON(nil); string(got) != string(want) {
			t.Errorf("row of %d: got %s, encoding/json writes %s", len(r), got, want)
		}
	}
}
