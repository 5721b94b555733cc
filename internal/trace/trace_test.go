package trace

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
)

func sample() []Ref {
	return []Ref{
		{Kind: IFetch, ASID: 1, VAddr: 0x1000},
		{Kind: Read, ASID: 1, VAddr: 0x2000},
		{Kind: Write, Super: true, ASID: 2, VAddr: 0xdeadbeef},
		{Kind: Read, Super: true, ASID: 0, VAddr: 0},
		{Kind: IFetch, ASID: 255, VAddr: 0xffffffff},
	}
}

func TestRefString(t *testing.T) {
	r := Ref{Kind: Write, Super: true, ASID: 2, VAddr: 0xdeadbeef}
	if got, want := r.String(), "W s 2 0xdeadbeef"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestRefPage(t *testing.T) {
	r := Ref{VAddr: 0x1234}
	if got := r.Page(256); got != 0x12 {
		t.Errorf("Page(256) = %#x, want 0x12", got)
	}
	if got := r.Page(128); got != 0x24 {
		t.Errorf("Page(128) = %#x, want 0x24", got)
	}
}

func TestSliceSource(t *testing.T) {
	src := NewSliceSource(sample())
	got := Collect(src, 0)
	if len(got) != 5 {
		t.Fatalf("collected %d refs, want 5", len(got))
	}
	if _, ok := src.Next(); ok {
		t.Error("Next after exhaustion returned ok")
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	refs := sample()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, refs); err != nil {
		t.Fatal(err)
	}
	br, err := NewBinaryReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got := Collect(br, 0)
	if br.Err() != nil {
		t.Fatal(br.Err())
	}
	if len(got) != len(refs) {
		t.Fatalf("got %d refs, want %d", len(got), len(refs))
	}
	for i := range refs {
		if got[i] != refs[i] {
			t.Errorf("ref %d: got %v, want %v", i, got[i], refs[i])
		}
	}
}

func TestBinaryRoundTripProperty(t *testing.T) {
	f := func(kinds []uint8, addrs []uint32) bool {
		n := len(kinds)
		if len(addrs) < n {
			n = len(addrs)
		}
		refs := make([]Ref, n)
		for i := 0; i < n; i++ {
			refs[i] = Ref{
				Kind:  Kind(kinds[i] % 3),
				Super: kinds[i]&4 != 0,
				ASID:  kinds[i],
				VAddr: addrs[i],
			}
		}
		var buf bytes.Buffer
		if err := WriteBinary(&buf, refs); err != nil {
			return false
		}
		br, err := NewBinaryReader(&buf)
		if err != nil {
			return false
		}
		got := Collect(br, 0)
		if br.Err() != nil || len(got) != n {
			return false
		}
		for i := range refs {
			if got[i] != refs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBinaryBadMagic(t *testing.T) {
	if _, err := NewBinaryReader(strings.NewReader("NOTATRACE")); err == nil {
		t.Error("bad magic accepted")
	}
}

func TestBinaryBadKind(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString("VMPTRC1\n")
	buf.Write([]byte{9, 0, 0, 0, 0, 0, 0, 0})
	br, err := NewBinaryReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := br.Next(); ok {
		t.Error("invalid kind accepted")
	}
	if br.Err() == nil {
		t.Error("Err() nil after invalid kind")
	}
}

// TestTextRoundTrip pins WriteText's format (tracegen's -text output):
// one Ref.String line per reference.
func TestTextRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteText(&buf, sample()); err != nil {
		t.Fatal(err)
	}
	const want = `I u 1 0x00001000
R u 1 0x00002000
W s 2 0xdeadbeef
R s 0 0x00000000
I u 255 0xffffffff
`
	if got := buf.String(); got != want {
		t.Errorf("WriteText wrote\n%s\nwant\n%s", got, want)
	}
}

// TestLimit: Collect stops at its limit, leaving the rest of the
// stream unread.
func TestLimit(t *testing.T) {
	src := NewSliceSource(sample())
	if got := Collect(src, 2); len(got) != 2 || got[1] != sample()[1] {
		t.Fatalf("Collect(src, 2) = %v", got)
	}
	if r, ok := src.Next(); !ok || r != sample()[2] {
		t.Errorf("next ref after the limit = %v, %v; want %v", r, ok, sample()[2])
	}
}

func TestInterleave(t *testing.T) {
	mk := func(asid uint8, n int) Source {
		refs := make([]Ref, n)
		for i := range refs {
			refs[i] = Ref{ASID: asid, VAddr: uint32(i)}
		}
		return NewSliceSource(refs)
	}
	src := Interleave([]Source{mk(1, 5), mk(2, 3)}, []int{2, 1})
	got := Collect(src, 0)
	if len(got) != 8 {
		t.Fatalf("interleave gave %d refs, want 8", len(got))
	}
	wantASIDs := []uint8{1, 1, 2, 1, 1, 2, 1, 2}
	for i, r := range got {
		if r.ASID != wantASIDs[i] {
			t.Errorf("ref %d asid %d, want %d (order %v)", i, r.ASID, wantASIDs[i], got)
			break
		}
	}
}

func TestInterleaveSkipsExhausted(t *testing.T) {
	mk := func(asid uint8, n int) Source {
		refs := make([]Ref, n)
		for i := range refs {
			refs[i] = Ref{ASID: asid}
		}
		return NewSliceSource(refs)
	}
	src := Interleave([]Source{mk(1, 1), mk(2, 4)}, []int{3, 3})
	got := Collect(src, 0)
	if len(got) != 5 {
		t.Fatalf("got %d refs, want 5", len(got))
	}
}

func TestSummarize(t *testing.T) {
	st := Summarize(NewSliceSource(sample()), 0, 128, 256)
	if st.Refs != 5 || st.IFetches != 2 || st.Reads != 2 || st.Writes != 1 {
		t.Errorf("counts wrong: %+v", st)
	}
	if st.Supervisor != 2 {
		t.Errorf("supervisor = %d, want 2", st.Supervisor)
	}
	if got := st.SupervisorFraction(); got != 0.4 {
		t.Errorf("SupervisorFraction = %v, want 0.4", got)
	}
	if len(st.ASIDs) != 4 {
		t.Errorf("asids = %d, want 4", len(st.ASIDs))
	}
	// All five refs land on distinct (asid, page) pairs at 256B.
	if st.UniquePages[256] != 5 {
		t.Errorf("unique 256B pages = %d, want 5", st.UniquePages[256])
	}
	if st.Footprint(256) != 5*256 {
		t.Errorf("footprint = %d", st.Footprint(256))
	}
}

func TestSummarizeMax(t *testing.T) {
	st := Summarize(NewSliceSource(sample()), 3)
	if st.Refs != 3 {
		t.Errorf("refs = %d, want 3", st.Refs)
	}
}

func TestStatsEmpty(t *testing.T) {
	st := Summarize(NewSliceSource(nil), 0)
	if st.SupervisorFraction() != 0 {
		t.Error("empty stats fractions nonzero")
	}
	_ = st.String()
}

func TestGzipRoundTrip(t *testing.T) {
	refs := sample()
	var buf bytes.Buffer
	if err := WriteBinaryGzip(&buf, refs); err != nil {
		t.Fatal(err)
	}
	br, err := OpenBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got := Collect(br, 0)
	if br.Err() != nil || len(got) != len(refs) {
		t.Fatalf("err=%v n=%d", br.Err(), len(got))
	}
	for i := range refs {
		if got[i] != refs[i] {
			t.Errorf("ref %d mismatch", i)
		}
	}
}

func TestOpenBinaryPlain(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteBinary(&buf, sample()); err != nil {
		t.Fatal(err)
	}
	br, err := OpenBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := Collect(br, 0); len(got) != len(sample()) {
		t.Errorf("plain open got %d refs", len(got))
	}
}

func TestOpenBinaryTruncated(t *testing.T) {
	if _, err := OpenBinary(strings.NewReader("x")); err == nil {
		t.Error("truncated stream accepted")
	}
}

// FuzzBinaryTrace fuzzes the binary trace reader: OpenBinary never
// panics on arbitrary bytes, plain or gzip-framed, and whatever refs it
// decodes survive a WriteBinary round trip unchanged.
func FuzzBinaryTrace(f *testing.F) {
	var plain, gz bytes.Buffer
	if err := WriteBinary(&plain, sample()); err != nil {
		f.Fatal(err)
	}
	if err := WriteBinaryGzip(&gz, sample()); err != nil {
		f.Fatal(err)
	}
	f.Add(plain.Bytes())
	f.Add(gz.Bytes())
	f.Add([]byte(binaryMagic))
	f.Add([]byte("NOTATRACE"))
	f.Fuzz(func(t *testing.T, data []byte) {
		br, err := OpenBinary(bytes.NewReader(data))
		if err != nil {
			return
		}
		refs := Collect(br, 1<<16) // bounds a decompression bomb
		var out bytes.Buffer
		if err := WriteBinary(&out, refs); err != nil {
			t.Fatal(err)
		}
		back, err := OpenBinary(&out)
		if err != nil {
			t.Fatalf("re-reading %d written refs: %v", len(refs), err)
		}
		got := Collect(back, 0)
		if err := back.Err(); err != nil {
			t.Fatalf("re-reading %d written refs: %v", len(refs), err)
		}
		if len(got) != len(refs) {
			t.Fatalf("round trip kept %d of %d refs", len(got), len(refs))
		}
		for i := range refs {
			if got[i] != refs[i] {
				t.Fatalf("ref %d: %v became %v", i, refs[i], got[i])
			}
		}
	})
}
