package value

import (
	"strconv"
	"strings"
	"testing"
	"unsafe"
)

func TestInternReturnsCanonicalInstance(t *testing.T) {
	a := Intern(string([]byte("attr-name")))
	b := Intern(string([]byte("attr-name")))
	if a != b {
		t.Fatalf("Intern returned different contents: %q vs %q", a, b)
	}
	if unsafe.StringData(a) != unsafe.StringData(b) {
		t.Fatal("Intern returned distinct backing arrays for equal strings")
	}
}

func TestInternCapStopsGrowth(t *testing.T) {
	// Saturate the table; strings past the cap must still round-trip by
	// value even though they are not retained.
	prefix := strings.Repeat("x", 8)
	for i := 0; i < maxInterned+64; i++ {
		Intern(prefix + strconv.Itoa(i))
	}
	internMu.RLock()
	n := len(interned)
	internMu.RUnlock()
	if n > maxInterned {
		t.Fatalf("intern table grew past cap: %d > %d", n, maxInterned)
	}
	if got := Intern("definitely-not-retained-past-cap"); got != "definitely-not-retained-past-cap" {
		t.Fatalf("Intern corrupted a value past the cap: %q", got)
	}
}
