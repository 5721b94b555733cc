package trace

import (
	"bufio"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
)

// Binary trace format: an 8-byte header "VMPTRC1\n" followed by one
// 8-byte little-endian record per reference:
//
//	byte 0: kind (0=I, 1=R, 2=W)
//	byte 1: flags (bit 0: supervisor)
//	byte 2: ASID
//	byte 3: reserved (0)
//	bytes 4-7: virtual address, little-endian uint32
const binaryMagic = "VMPTRC1\n"

const recordSize = 8

// WriteBinary writes refs to w in the binary trace format.
func WriteBinary(w io.Writer, refs []Ref) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(binaryMagic); err != nil {
		return err
	}
	var rec [recordSize]byte
	for _, r := range refs {
		rec[0] = byte(r.Kind)
		rec[1] = 0
		if r.Super {
			rec[1] = 1
		}
		rec[2] = r.ASID
		rec[3] = 0
		binary.LittleEndian.PutUint32(rec[4:], r.VAddr)
		if _, err := bw.Write(rec[:]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// BinaryReader streams references from the binary trace format.
type BinaryReader struct {
	r   *bufio.Reader
	err error
}

// NewBinaryReader validates the header and returns a streaming reader.
func NewBinaryReader(r io.Reader) (*BinaryReader, error) {
	br := bufio.NewReader(r)
	head := make([]byte, len(binaryMagic))
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	if string(head) != binaryMagic {
		return nil, fmt.Errorf("trace: bad magic %q", head)
	}
	return &BinaryReader{r: br}, nil
}

// Next implements Source. After the stream ends (or errors), Err
// distinguishes clean EOF from corruption.
func (b *BinaryReader) Next() (Ref, bool) {
	if b.err != nil {
		return Ref{}, false
	}
	var rec [recordSize]byte
	if _, err := io.ReadFull(b.r, rec[:]); err != nil {
		if err != io.EOF {
			b.err = err
		}
		return Ref{}, false
	}
	if rec[0] > byte(Write) {
		b.err = fmt.Errorf("trace: invalid kind %d", rec[0])
		return Ref{}, false
	}
	return Ref{
		Kind:  Kind(rec[0]),
		Super: rec[1]&1 != 0,
		ASID:  rec[2],
		VAddr: binary.LittleEndian.Uint32(rec[4:]),
	}, true
}

// Err returns the first error encountered, or nil at clean end of
// stream.
func (b *BinaryReader) Err() error { return b.err }

// WriteText writes refs to w, one per line, in the format produced by
// Ref.String: "<kind> <mode> <asid> 0x<addr>".
func WriteText(w io.Writer, refs []Ref) error {
	bw := bufio.NewWriter(w)
	for _, r := range refs {
		if _, err := fmt.Fprintln(bw, r); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteBinaryGzip writes refs in the binary format, gzip-compressed.
func WriteBinaryGzip(w io.Writer, refs []Ref) error {
	zw := gzip.NewWriter(w)
	if err := WriteBinary(zw, refs); err != nil {
		zw.Close()
		return err
	}
	return zw.Close()
}

// OpenBinary returns a streaming reader for a binary trace, detecting
// gzip compression from the stream's magic bytes.
func OpenBinary(r io.Reader) (*BinaryReader, error) {
	br := bufio.NewReader(r)
	head, err := br.Peek(2)
	if err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	var src io.Reader = br
	if head[0] == 0x1f && head[1] == 0x8b {
		zr, err := gzip.NewReader(br)
		if err != nil {
			return nil, err
		}
		src = zr
	}
	return NewBinaryReader(src)
}
