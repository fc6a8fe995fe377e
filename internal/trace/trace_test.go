package trace

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"

	"vichar/internal/config"
)

func TestWriteReadRoundTrip(t *testing.T) {
	in := []Entry{
		{Cycle: 1, Src: 0, Dst: 5, Size: 4},
		{Cycle: 1, Src: 3, Dst: 2, Size: 1},
		{Cycle: 9, Src: 7, Dst: 0, Size: 8},
	}
	var buf bytes.Buffer
	if err := Write(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("round trip lost entries: %d -> %d", len(in), len(out))
	}
	for i := range in {
		if out[i] != in[i] {
			t.Fatalf("entry %d: %+v != %+v", i, out[i], in[i])
		}
	}
}

func TestReadSortsByCycle(t *testing.T) {
	src := "5 0 1 4\n1 2 3 4\n3 1 2 4\n"
	out, err := Read(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if out[0].Cycle != 1 || out[1].Cycle != 3 || out[2].Cycle != 5 {
		t.Fatalf("not sorted: %+v", out)
	}
}

func TestReadStableWithinCycle(t *testing.T) {
	src := "2 0 1 4\n2 5 6 4\n2 3 4 4\n"
	out, err := Read(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if out[0].Src != 0 || out[1].Src != 5 || out[2].Src != 3 {
		t.Fatalf("same-cycle order not preserved: %+v", out)
	}
}

func TestReadSkipsCommentsAndBlanks(t *testing.T) {
	src := "# header\n\n  \n1 0 1 4\n# mid\n2 1 0 4\n"
	out, err := Read(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("got %d entries", len(out))
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	for _, src := range []string{
		"1 2 3",        // too few fields
		"a b c d",      // non-numeric fields
		"1 2 3 4 5x",   // trailing garbage token
		"1 2 3 4 oops", // trailing word (fmt.Sscanf used to accept this)
		"1 2 3 4 5",    // extra numeric field
		"1 2 3x 4",     // non-numeric destination
		"nope",
	} {
		if _, err := Read(strings.NewReader(src)); err == nil {
			t.Errorf("garbage %q accepted", src)
		}
	}
}

// Malformed lines are reported with their 1-based line number, past
// comments and blanks, and leave no partial result.
func TestReadErrorCarriesLineNumber(t *testing.T) {
	src := "# header\n1 0 1 4\n\n2 1 0 4 oops\n"
	out, err := Read(strings.NewReader(src))
	if err == nil {
		t.Fatal("malformed line accepted")
	}
	if !strings.Contains(err.Error(), "line 4") {
		t.Fatalf("error %q does not name line 4", err)
	}
	if out != nil {
		t.Fatalf("partial result %v returned with error", out)
	}
}

func TestValidate(t *testing.T) {
	cases := []struct {
		e  Entry
		ok bool
	}{
		{Entry{Cycle: 0, Src: 0, Dst: 1, Size: 1}, true},
		{Entry{Cycle: -1, Src: 0, Dst: 1, Size: 1}, false},
		{Entry{Cycle: 0, Src: -1, Dst: 1, Size: 1}, false},
		{Entry{Cycle: 0, Src: 0, Dst: 64, Size: 1}, false},
		{Entry{Cycle: 0, Src: 3, Dst: 3, Size: 1}, false},
		{Entry{Cycle: 0, Src: 0, Dst: 1, Size: 0}, false},
		{Entry{Cycle: 0, Src: 0, Dst: 1, Size: config.MaxPacketSize}, true},
		{Entry{Cycle: 0, Src: 0, Dst: 1, Size: config.MaxPacketSize + 1}, false},
		{Entry{Cycle: 0, Src: 0, Dst: 1, Size: 1<<31 - 1}, false},
	}
	for i, c := range cases {
		err := c.e.Validate(64)
		if (err == nil) != c.ok {
			t.Errorf("case %d: Validate(%+v) = %v, want ok=%v", i, c.e, err, c.ok)
		}
	}
	if err := ValidateAll([]Entry{{Cycle: 0, Src: 0, Dst: 1, Size: 1}, {Src: 9, Dst: 9}}, 16); err == nil {
		t.Error("ValidateAll missed a bad entry")
	}
}

// Property: write-then-read is identity for any sorted, valid trace.
func TestRoundTripProperty(t *testing.T) {
	prop := func(raw []uint32) bool {
		var in []Entry
		cycle := int64(0)
		for _, r := range raw {
			cycle += int64(r % 7)
			e := Entry{
				Cycle: cycle,
				Src:   int(r % 16),
				Dst:   int((r / 16) % 16),
				Size:  1 + int((r/256)%8),
			}
			if e.Src == e.Dst {
				continue
			}
			in = append(in, e)
		}
		var buf bytes.Buffer
		if err := Write(&buf, in); err != nil {
			return false
		}
		out, err := Read(&buf)
		if err != nil || len(out) != len(in) {
			return false
		}
		for i := range in {
			if in[i] != out[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// failWriter fails after n bytes to exercise Write's error paths.
type failWriter struct{ left int }

func (w *failWriter) Write(p []byte) (int, error) {
	if w.left <= 0 {
		return 0, errFail
	}
	n := len(p)
	if n > w.left {
		n = w.left
	}
	w.left -= n
	if n < len(p) {
		return n, errFail
	}
	return n, nil
}

var errFail = bytes.ErrTooLarge

func TestWriteErrorPropagates(t *testing.T) {
	entries := []Entry{{Cycle: 1, Src: 0, Dst: 1, Size: 4}}
	if err := Write(&failWriter{left: 3}, entries); err == nil {
		t.Error("header write error swallowed")
	}
	if err := Write(&failWriter{left: 60}, make([]Entry, 50)); err == nil {
		t.Error("entry write error swallowed")
	}
}

func TestValidateAllOK(t *testing.T) {
	entries := []Entry{
		{Cycle: 0, Src: 0, Dst: 1, Size: 1},
		{Cycle: 5, Src: 2, Dst: 3, Size: 8},
	}
	if err := ValidateAll(entries, 16); err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}
}
