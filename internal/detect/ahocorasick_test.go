package detect

import (
	"bytes"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestMatcherFindsAllOccurrences(t *testing.T) {
	m := NewMatcher([][]byte{[]byte("he"), []byte("she"), []byte("his"), []byte("hers")})
	got := m.Scan([]byte("ushers"))
	// "ushers": she@4, he@4, hers@6.
	want := []Match{{1, 4}, {0, 4}, {3, 6}}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	seen := make(map[Match]bool)
	for _, g := range got {
		seen[g] = true
	}
	for _, w := range want {
		if !seen[w] {
			t.Fatalf("missing match %v in %v", w, got)
		}
	}
}

func TestMatcherOverlappingPatterns(t *testing.T) {
	m := NewMatcher([][]byte{[]byte("aa"), []byte("aaa")})
	got := m.Scan([]byte("aaaa"))
	// aa@2, aa@3+aaa@3, aa@4+aaa@4 = 5 matches.
	if len(got) != 5 {
		t.Fatalf("got %d matches: %v", len(got), got)
	}
}

func TestMatcherEmptyAndNoMatch(t *testing.T) {
	m := NewMatcher([][]byte{[]byte("xyz"), nil, []byte("")})
	if len(m.patterns) != 1 {
		t.Fatalf("%d patterns compiled, want 1 (empties dropped)", len(m.patterns))
	}
	if got := m.Scan([]byte("hello world")); got != nil {
		t.Fatalf("unexpected matches %v", got)
	}
	if m.Contains([]byte("hello")) {
		t.Fatal("Contains false positive")
	}
	if !m.Contains([]byte("wxyz!")) {
		t.Fatal("Contains false negative")
	}
	if got := m.Scan(nil); got != nil {
		t.Fatalf("nil input matched: %v", got)
	}
}

func TestMatcherBinaryPatterns(t *testing.T) {
	sled := bytes.Repeat([]byte{0x90}, 8)
	m := NewMatcher([][]byte{sled})
	data := append([]byte("GET /"), bytes.Repeat([]byte{0x90}, 20)...)
	if !m.Contains(data) {
		t.Fatal("binary pattern not found")
	}
	if m.Contains(bytes.Repeat([]byte{0x90, 0x00}, 10)) {
		t.Fatal("interleaved bytes should not match the sled")
	}
}

func TestScanSetDistinctSorted(t *testing.T) {
	m := NewMatcher([][]byte{[]byte("ab"), []byte("bc"), []byte("zz")})
	var buf ScanBuf
	got := m.ScanSetInto([]byte("ababcbc"), &buf)
	if !reflect.DeepEqual(got, []int32{0, 1}) {
		t.Fatalf("ScanSetInto = %v", got)
	}
}

// scanSetRef is the set-scan oracle: Scan's matches reduced to their
// sorted distinct pattern indices.
func scanSetRef(m *Matcher, data []byte) []int {
	seen := map[int]bool{}
	for _, mt := range m.Scan(data) {
		seen[mt.Pattern] = true
	}
	out := make([]int, 0, len(seen))
	for p := range seen {
		out = append(out, p)
	}
	sort.Ints(out)
	return out
}

// Property: Aho–Corasick agrees with the naive scanner on random inputs
// over a small alphabet (small alphabet maximizes overlaps).
func TestPropertyMatcherAgreesWithNaive(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		alphabet := []byte("abc")
		randBytes := func(n int) []byte {
			b := make([]byte, n)
			for i := range b {
				b[i] = alphabet[r.Intn(len(alphabet))]
			}
			return b
		}
		var pats [][]byte
		for i := 0; i < 1+r.Intn(6); i++ {
			pats = append(pats, randBytes(1+r.Intn(4)))
		}
		data := randBytes(r.Intn(200))
		m := NewMatcher(pats)
		got := m.Scan(data)
		want := NaiveScan(pats, data)
		if len(got) != len(want) {
			return false
		}
		// Compare as multisets.
		count := make(map[Match]int)
		for _, g := range got {
			count[g]++
		}
		for _, w := range want {
			count[w]--
		}
		for _, c := range count {
			if c != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestMatcherDuplicatePatterns(t *testing.T) {
	m := NewMatcher([][]byte{[]byte("dup"), []byte("dup")})
	got := m.Scan([]byte("xxdupxx"))
	if len(got) != 2 {
		t.Fatalf("duplicate patterns must both report: %v", got)
	}
}

func benchCorpus() ([][]byte, []byte) {
	rules := StandardContentRules()
	pats := make([][]byte, len(rules))
	for i, r := range rules {
		pats[i] = r.Pattern
	}
	r := rand.New(rand.NewSource(3))
	data := make([]byte, 4096)
	words := []byte("GET /index.html HTTP/1.0 Host: shop.example.com status nominal track ")
	for i := range data {
		data[i] = words[r.Intn(len(words))]
	}
	return pats, data
}

func BenchmarkAhoCorasickScan4K(b *testing.B) {
	pats, data := benchCorpus()
	m := NewMatcher(pats)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Contains(data)
	}
}

func BenchmarkNaiveScan4K(b *testing.B) {
	pats, data := benchCorpus()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NaiveScan(pats, data)
	}
}
