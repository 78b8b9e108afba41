package store

import (
	"bytes"
	"testing"
)

func TestKeyHashDistinguishesFieldBoundaries(t *testing.T) {
	// The length-prefixed hash must not collide keys whose concatenation is
	// identical — the exact weakness of the old "\x00" string scheme if a
	// field ever contained the separator.
	a := Key{ProgID: "ab", BuildKey: "c"}
	b := Key{ProgID: "a", BuildKey: "bc"}
	if a.Hash() == b.Hash() {
		t.Fatalf("boundary-shifted keys collide: %s", a.Hash())
	}
	if a.Hash() != a.Hash() {
		t.Fatal("hash not deterministic")
	}
	if len(a.Hash()) != 64 {
		t.Fatalf("hash length = %d, want 64 hex chars", len(a.Hash()))
	}
}

func TestKeyString(t *testing.T) {
	k := Key{ProgID: "prog", BuildKey: "xom=1"}
	if got := k.String(); got != "prog+xom=1" {
		t.Fatalf("String() = %q", got)
	}
}

func TestParseBytes(t *testing.T) {
	cases := []struct {
		in   string
		want uint64
		err  bool
	}{
		{"0", 0, false},
		{"1024", 1024, false},
		{"4K", 4096, false},
		{"4k", 4096, false},
		{"2M", 2 << 20, false},
		{"1G", 1 << 30, false},
		{"16MB", 16 << 20, false},
		{"16MiB", 16 << 20, false},
		{"8 K", 8192, false},
		{"", 0, true},
		{"twelve", 0, true},
		{"1.5G", 0, true},
	}
	for _, c := range cases {
		got, err := ParseBytes(c.in)
		if c.err {
			if err == nil {
				t.Errorf("ParseBytes(%q): want error, got %d", c.in, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseBytes(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseBytes(%q) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{Hits: 1, Misses: 2, Puts: 3, Evictions: 4, Corrupt: 5, Bytes: 6, Builds: 8}
	b := Stats{Hits: 10, Misses: 20, Puts: 30, Evictions: 40, Corrupt: 50, Bytes: 60, Builds: 80}
	got := a.Add(b)
	want := Stats{Hits: 11, Misses: 22, Puts: 33, Evictions: 44, Corrupt: 55, Bytes: 66, Builds: 88}
	if got != want {
		t.Fatalf("Add = %+v, want %+v", got, want)
	}
}

func TestBlobRoundTrip(t *testing.T) {
	payload := []byte("the artifact payload")
	blob := wrapBlob(payload)
	got, err := unwrapBlob(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("round trip mismatch: %q", got)
	}
	if _, err := unwrapBlob(blob[:len(blob)-1]); err == nil {
		t.Fatal("truncated blob accepted")
	}
	flipped := append([]byte(nil), blob...)
	flipped[len(flipped)-1] ^= 0x01
	if _, err := unwrapBlob(flipped); err == nil {
		t.Fatal("bit-flipped blob accepted")
	}
	badMagic := append([]byte(nil), blob...)
	badMagic[0] = 'X'
	if _, err := unwrapBlob(badMagic); err == nil {
		t.Fatal("bad-magic blob accepted")
	}
}
