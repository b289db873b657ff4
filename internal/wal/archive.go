package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Log shipping and archiving. A hot standby consumes the stable log as a
// stream of segments, and media recovery rolls an image copy forward from an
// archive; both read one frame format. A segment's body is the stable log's
// stored bytes from one record start to the stable mark, exactly as the
// arena holds them, behind a header carrying the sender's watermarks, the
// body's first LSN and a frame CRC. An archive is the one segment that starts
// at LSN 1. The sender copies bytes and decodes nothing; a receiver decodes
// each record once (DecodeSegment) and joins the segment to its own log as
// the same bytes (Receive), so the wire format is the log's own and a
// received log is byte-identical to the sender's over what it received.

const segmentMagic = uint32(0x41525347) // "ARSG"

// segment frame layout, all little-endian:
//
//	magic u32 | stable u64 | master u64 | first u64 | bodyLen u32 | crc u32 | body
//
// The CRC is CRC32-Castagnoli over the header fields before it and the body,
// so a flipped watermark or first LSN is as detectable as a flipped record
// byte.
const (
	segCRCOff     = 4 + 8 + 8 + 8 + 4
	segHeaderSize = segCRCOff + 4
)

// Typed frame errors. Callers classify with errors.Is.
var (
	// ErrArchiveTorn reports an archive stream that ends mid-record — the
	// tail was torn off in transit or on the media, exactly like a torn WAL
	// tail. It is RECOVERABLE: ReadArchive returns the intact prefix
	// alongside this error, and the caller decides whether the lost
	// suffix matters.
	ErrArchiveTorn = errors.New("wal: archive tail torn")
	// ErrSegmentCorrupt reports a frame damaged beyond a torn tail: a bad
	// magic, length or frame CRC, or a record that fails its codec while
	// more bytes follow. Nothing at or after the damage can be trusted, so
	// a standby discards the segment, and ReadArchive rejects the stream
	// outright.
	ErrSegmentCorrupt = errors.New("wal: log frame corrupt")
	// ErrSegmentGap reports a segment whose records start beyond a log's next LSN.
	ErrSegmentGap = errors.New("wal: segment leaves a gap")
)

// Segment is one resumable slice of the stable log stream: the unit a
// shipper sends, a standby applies and an archive holds. A receiver finds
// gaps and duplicates from the records' own LSNs.
type Segment struct {
	// Stable and Master are the sender's watermarks at ship time.
	Stable LSN
	Master LSN
	// First is the LSN of Body's first record (the next LSN when Body is
	// empty).
	First LSN
	// Body is the shipped records' stored bytes, contiguous and in LSN
	// order.
	Body []byte
}

// header returns the segment's frame header, CRC included.
func (s *Segment) header() []byte {
	h := make([]byte, segHeaderSize)
	binary.LittleEndian.PutUint32(h[0:4], segmentMagic)
	binary.LittleEndian.PutUint64(h[4:12], uint64(s.Stable))
	binary.LittleEndian.PutUint64(h[12:20], uint64(s.Master))
	binary.LittleEndian.PutUint64(h[20:28], uint64(s.First))
	binary.LittleEndian.PutUint32(h[28:32], uint32(len(s.Body)))
	binary.LittleEndian.PutUint32(h[segCRCOff:], frameCRC(h, s.Body))
	return h
}

// frameCRC is the CRC of a frame with header hdr and body body.
func frameCRC(hdr, body []byte) uint32 {
	return crc32.Update(crc32.Checksum(hdr[:segCRCOff], recCRCTable), recCRCTable, body)
}

// Encode serializes the segment into one self-checking frame.
func (s *Segment) Encode() []byte { return append(s.header(), s.Body...) }

// DecodeSegment parses and verifies one segment frame and decodes its
// records, each at First plus its offset in Body. Any damage returns
// ErrSegmentCorrupt (wrapped with detail): the channel mangled the frame
// and the receiver should discard it.
func DecodeSegment(b []byte) (*Segment, []*Record, error) {
	return decodeFrame(b, false)
}

// decodeFrame parses one frame and decodes its records. With torn set it
// accepts a damaged tail the way a restart accepts a torn log tail: a frame
// cut short, or one whose last record fails to decode with nothing after it,
// yields the segment cut to its intact records, the records, and
// ErrArchiveTorn. Any other damage is ErrSegmentCorrupt.
func decodeFrame(b []byte, torn bool) (*Segment, []*Record, error) {
	if len(b) < segHeaderSize || binary.LittleEndian.Uint32(b) != segmentMagic {
		return nil, nil, fmt.Errorf("%w: no frame header", ErrSegmentCorrupt)
	}
	s := &Segment{
		Stable: LSN(binary.LittleEndian.Uint64(b[4:12])),
		Master: LSN(binary.LittleEndian.Uint64(b[12:20])),
		First:  LSN(binary.LittleEndian.Uint64(b[20:28])),
		Body:   b[segHeaderSize:],
	}
	bodyLen := int(binary.LittleEndian.Uint32(b[28:32]))
	if n := len(s.Body); n > bodyLen || n < bodyLen && !torn {
		return nil, nil, fmt.Errorf("%w: %d body bytes, header says %d", ErrSegmentCorrupt, n, bodyLen)
	}
	intact := len(s.Body) == bodyLen && frameCRC(b, s.Body) == binary.LittleEndian.Uint32(b[segCRCOff:])
	if !intact && !torn {
		return nil, nil, fmt.Errorf("%w: frame CRC mismatch", ErrSegmentCorrupt)
	}
	var recs []*Record
	for off := 0; off < len(s.Body); {
		rec, n, err := DecodeRecord(s.Body[off:])
		if err != nil {
			// The record is the tail if it claims every byte left or more.
			if rest := s.Body[off:]; !torn || len(rest) >= 4 && int(binary.LittleEndian.Uint32(rest)) < len(rest) {
				return nil, nil, fmt.Errorf("%w: record at LSN %d: %v", ErrSegmentCorrupt, s.First+LSN(off), err)
			}
			s.Body = s.Body[:off]
			return s, recs, ErrArchiveTorn
		}
		rec.LSN = s.First + LSN(off)
		recs = append(recs, rec)
		off += n
	}
	switch {
	case intact:
		return s, recs, nil
	case len(s.Body) < bodyLen:
		return s, recs, ErrArchiveTorn // the stream stopped at a record boundary
	}
	return nil, nil, fmt.Errorf("%w: frame CRC mismatch", ErrSegmentCorrupt)
}

// ShipFrom builds the segment covering every stable record with
// LSN >= from; a from inside a record starts at the next record. The body
// is the log's stored bytes, copied and not decoded, and the watermarks are
// captured in the same instant — the Archive snapshot contract applied to a
// suffix. An empty result (nothing new hardened) is a valid heartbeat
// segment.
func (l *Log) ShipFrom(from LSN) *Segment {
	s, _ := l.shipFrom(from)
	return s
}

// shipFrom is ShipFrom, also returning the number of records shipped.
func (l *Log) shipFrom(from LSN) (*Segment, int) {
	v, stable, master := l.stableView()
	start, ord := v.locate(uint64(max(from, 1)) - 1)
	s := &Segment{Stable: stable, Master: master, First: LSN(start + 1), Body: make([]byte, v.end-start)}
	v.copyOut(s.Body, start)
	return s, int(v.n - ord)
}

// Archive writes the stable log prefix to w as one segment frame from
// LSN 1 and returns the number of records written.
//
// Snapshot contract: the archive is exactly the stable prefix at one
// instant between the call and its return (bytes and watermarks are
// captured under a single lock acquisition). Writers may keep appending
// and forcing concurrently; everything they harden after that instant is
// excluded, nothing before it is ever missing, and the header's stable LSN
// always equals the LSN of the last archived record.
func (l *Log) Archive(w io.Writer) (int, error) {
	s, n := l.shipFrom(NilLSN + 1)
	if _, err := w.Write(s.header()); err != nil {
		return 0, err
	}
	if _, err := w.Write(s.Body); err != nil {
		return 0, err
	}
	return n, nil
}

// ReadArchive reconstructs a Log from an archive stream. The returned log
// is fully stable (everything in an archive was forced by definition) and
// ready for recovery replay.
//
// Damage is classified, not silently swallowed:
//
//   - A torn tail — the stream stops short of the frame's length, or its
//     last record fails to decode — is recoverable, exactly like a torn
//     WAL tail: the intact prefix is returned as a usable log TOGETHER with
//     ErrArchiveTorn, so the caller can decide whether the loss matters
//     (media recovery shrugs).
//   - Any other damage — a record that fails its codec while more bytes
//     follow, a whole frame that fails its CRC, a frame that does not
//     start at LSN 1 — is unrecoverable: ReadArchive rejects the stream
//     with ErrSegmentCorrupt.
func ReadArchive(r io.Reader) (*Log, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("wal: archive: %w", err)
	}
	s, _, err := decodeFrame(b, true)
	if err != nil && !errors.Is(err, ErrArchiveTorn) {
		return nil, err
	}
	if s.First != NilLSN+1 {
		return nil, fmt.Errorf("%w: archive starts at LSN %d", ErrSegmentCorrupt, s.First)
	}
	l := NewLog(nil)
	l.Receive(s) // a fresh log expects LSN 1: no gap
	return l, err
}

// Receive joins the decoded segment s to the log as s's bytes, so its LSNs
// are the sender's by construction: it drops the records below the log's
// next LSN (a duplicate or overlapping delivery), appends the rest, forces
// them, and adopts the sender's master once the stable prefix covers it. It
// returns how many records of s it appended, the last ones. A segment that
// starts beyond the next LSN is refused with ErrSegmentGap, the log
// unchanged. The caller is the log's only appender while Receive runs.
func (l *Log) Receive(s *Segment) (int, error) {
	n, last := 0, NilLSN
	l.crashMu.RLock()
	_, end := unpackResv(l.resv.Load())
	next := LSN(end + 1)
	for lsn, b := s.First, s.Body; len(b) > 0; {
		size := binary.LittleEndian.Uint32(b)
		if lsn > next { // before the first append only: later, lsn == next
			l.crashMu.RUnlock()
			return 0, fmt.Errorf("%w: record at LSN %d, log expects %d", ErrSegmentGap, lsn, next)
		}
		if lsn == next {
			last = l.reserveFill(nil, b[:size], int(size))
			next += LSN(size)
			n++
		}
		lsn, b = lsn+LSN(size), b[size:]
	}
	l.crashMu.RUnlock()
	l.Force(last)
	if s.Master > l.Master() && s.Master <= l.StableLSN() {
		l.SetMaster(s.Master)
	}
	return n, nil
}
