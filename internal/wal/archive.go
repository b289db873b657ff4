package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Log archiving and shipping. Media recovery needs the log back to the
// oldest image copy; real systems therefore archive the stable log to
// offline storage, and a hot standby consumes the same byte stream
// incrementally. Archive serializes the stable prefix with the on-log
// record codec, ReadArchive reconstructs a Log from an archive stream, and
// Segment frames a resumable slice of that stream (epoch, watermarks,
// per-segment CRC) for continuous shipping over a lossy channel. Archive
// writes the log's stored record bytes as they are and Segment.Encode
// re-encodes its records — the same codec a file-backed log would use, read
// back with DecodeRecord — so the wire format is pinned by tests.

const (
	archiveMagic = uint32(0x41524C47) // "ARLG"
	segmentMagic = uint32(0x41525347) // "ARSG"
)

// Typed archive-stream errors. Callers classify with errors.Is.
var (
	// ErrArchiveTorn reports an archive stream that ends mid-record — the
	// tail was torn off in transit or on the media, exactly like a torn WAL
	// tail. It is RECOVERABLE: ReadArchive returns the intact prefix
	// alongside this error, and the caller decides whether the lost
	// suffix matters.
	ErrArchiveTorn = errors.New("wal: archive tail torn")
	// ErrArchiveCorrupt reports corruption in the middle of an archive
	// stream: a record fails its CRC (or carries a garbage length) while
	// more data follows. Unlike a torn tail there is no way to trust
	// anything at or after the damage, so the stream is rejected outright.
	ErrArchiveCorrupt = errors.New("wal: archive corrupt mid-stream")
	// ErrSegmentCorrupt reports a replication segment whose frame CRC or
	// record codec check failed — the channel damaged it in flight. The
	// receiver discards the frame and NAKs.
	ErrSegmentCorrupt = errors.New("wal: replication segment corrupt")
)

// Archive writes the stable log prefix to w: a small header (magic,
// stable LSN, master LSN) followed by the encoded records. It returns the
// number of records written.
//
// Snapshot contract: the archive is exactly the stable prefix at one
// instant between the call and its return (records and watermarks are
// captured under a single lock acquisition). Writers may keep appending
// and forcing concurrently; everything they harden after that instant is
// excluded, nothing before it is ever missing, and the header's stable LSN
// always equals the LSN of the last archived record.
func (l *Log) Archive(w io.Writer) (int, error) {
	v, stable, master := l.stableView()

	bw := bufio.NewWriter(w)
	var hdr [20]byte
	binary.LittleEndian.PutUint32(hdr[0:4], archiveMagic)
	binary.LittleEndian.PutUint64(hdr[4:12], uint64(stable))
	binary.LittleEndian.PutUint64(hdr[12:20], uint64(master))
	if _, err := bw.Write(hdr[:]); err != nil {
		return 0, err
	}
	for _, b := range v.span(0, v.end) {
		if _, err := bw.Write(b); err != nil {
			return 0, err
		}
	}
	return int(v.n), bw.Flush()
}

// ReadArchive reconstructs a Log from an archive stream. The returned log
// is fully stable (everything in an archive was forced by definition) and
// ready for recovery replay.
//
// Damage is classified, not silently swallowed:
//
//   - A torn tail — the stream simply stops mid-record — is recoverable,
//     exactly like a torn WAL tail: the intact prefix is returned as a
//     usable log TOGETHER with ErrArchiveTorn, so the caller can decide
//     whether the loss matters (media recovery shrugs).
//   - Mid-stream corruption — a record that fails its CRC or carries a
//     garbage length while more bytes follow — is unrecoverable: nothing
//     at or beyond the damage can be trusted to re-frame, so ReadArchive
//     rejects the stream with ErrArchiveCorrupt.
func ReadArchive(r io.Reader) (*Log, error) {
	br := bufio.NewReader(r)
	var hdr [20]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("wal: archive header: %w", err)
	}
	if binary.LittleEndian.Uint32(hdr[0:4]) != archiveMagic {
		return nil, fmt.Errorf("wal: not a log archive")
	}
	stable := LSN(binary.LittleEndian.Uint64(hdr[4:12]))
	master := LSN(binary.LittleEndian.Uint64(hdr[12:20]))

	l := NewLog(nil)
	// moreData reports whether any byte follows the current read position —
	// the discriminator between a torn tail and mid-stream corruption.
	moreData := func() bool {
		_, err := br.Peek(1)
		return err == nil
	}
	var readErr error
	var lenBuf [4]byte
	for {
		if _, err := io.ReadFull(br, lenBuf[:]); err != nil {
			if err != io.EOF {
				readErr = ErrArchiveTorn // stream died inside a length prefix
			}
			break
		}
		total := binary.LittleEndian.Uint32(lenBuf[:])
		if total < recHeaderSize {
			if moreData() {
				return nil, fmt.Errorf("%w: record length %d", ErrArchiveCorrupt, total)
			}
			readErr = ErrArchiveTorn
			break
		}
		buf := make([]byte, total)
		copy(buf, lenBuf[:])
		if _, err := io.ReadFull(br, buf[4:]); err != nil {
			readErr = ErrArchiveTorn // record body truncated: the stream ended here
			break
		}
		rec, _, err := DecodeRecord(buf)
		if err != nil {
			if moreData() {
				return nil, fmt.Errorf("%w: %v", ErrArchiveCorrupt, err)
			}
			readErr = ErrArchiveTorn // bad CRC on the final record: torn tail
			break
		}
		l.Append(rec)
	}
	if max := l.MaxLSN(); stable > max {
		stable = max // archive tail was lost; clamp the stable mark
	}
	l.Force(stable)
	if master != NilLSN && master <= stable {
		l.SetMaster(master)
	}
	return l, readErr
}

// Segment is one resumable slice of the stable log stream: the unit a
// shipper sends and a standby applies. Its framing is what a receiver
// reads: an epoch for zombie-primary fencing, the shipper's stable and
// master watermarks, and a whole-frame CRC. A receiver finds gaps and
// duplicates from the records' own LSNs.
type Segment struct {
	// Epoch is the cluster generation the sender believes it leads. A
	// receiver that has promoted past this epoch rejects the segment: the
	// sender is a zombie of a dead primacy.
	Epoch uint64
	// Stable and Master are the sender's watermarks at ship time.
	Stable LSN
	Master LSN
	// Records is the shipped log slice, contiguous and in LSN order.
	Records []*Record
}

// segment frame layout, all little-endian:
//
//	magic u32 | epoch u64 | stable u64 | master u64 | firstLSN u64 |
//	count u32 | bodyLen u32 | crc u32 | body (count × encoded records)
//
// The CRC is CRC32-Castagnoli over the entire frame with the crc field
// zeroed — header fields included, so a flipped epoch or LSN is as
// detectable as a flipped payload byte.
const segHeaderSize = 4 + 8 + 8 + 8 + 8 + 4 + 4 + 4

// Encode serializes the segment into one self-checking frame.
func (s *Segment) Encode() []byte {
	bodyLen := 0
	for _, r := range s.Records {
		bodyLen += r.EncodedSize()
	}
	b := make([]byte, segHeaderSize+bodyLen)
	binary.LittleEndian.PutUint32(b[0:4], segmentMagic)
	binary.LittleEndian.PutUint64(b[4:12], s.Epoch)
	binary.LittleEndian.PutUint64(b[12:20], uint64(s.Stable))
	binary.LittleEndian.PutUint64(b[20:28], uint64(s.Master))
	if len(s.Records) > 0 {
		binary.LittleEndian.PutUint64(b[28:36], uint64(s.Records[0].LSN))
	}
	binary.LittleEndian.PutUint32(b[36:40], uint32(len(s.Records)))
	binary.LittleEndian.PutUint32(b[40:44], uint32(bodyLen))
	// crc at [44:48] stays zero while hashing.
	off := segHeaderSize
	for _, r := range s.Records {
		r.encodeTo(b[off : off+r.EncodedSize()])
		off += r.EncodedSize()
	}
	binary.LittleEndian.PutUint32(b[44:48], crc32.Checksum(b, recCRCTable))
	return b
}

// DecodeSegment parses and verifies one segment frame. Any damage — bad
// magic, bad frame CRC, bad lengths, a record that fails its own codec, or
// a record stream that is not contiguous in LSN — returns ErrSegmentCorrupt
// (wrapped with detail): the channel mangled the frame and the receiver
// should discard it.
func DecodeSegment(b []byte) (*Segment, error) {
	if len(b) < segHeaderSize {
		return nil, fmt.Errorf("%w: frame %d bytes", ErrSegmentCorrupt, len(b))
	}
	if binary.LittleEndian.Uint32(b[0:4]) != segmentMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrSegmentCorrupt)
	}
	count := int(binary.LittleEndian.Uint32(b[36:40]))
	bodyLen := int(binary.LittleEndian.Uint32(b[40:44]))
	if segHeaderSize+bodyLen != len(b) {
		return nil, fmt.Errorf("%w: frame length mismatch", ErrSegmentCorrupt)
	}
	stored := binary.LittleEndian.Uint32(b[44:48])
	check := make([]byte, len(b))
	copy(check, b)
	binary.LittleEndian.PutUint32(check[44:48], 0)
	if stored != crc32.Checksum(check, recCRCTable) {
		return nil, fmt.Errorf("%w: frame CRC mismatch", ErrSegmentCorrupt)
	}
	s := &Segment{
		Epoch:  binary.LittleEndian.Uint64(b[4:12]),
		Stable: LSN(binary.LittleEndian.Uint64(b[12:20])),
		Master: LSN(binary.LittleEndian.Uint64(b[20:28])),
	}
	body := b[segHeaderSize:]
	lsn := LSN(binary.LittleEndian.Uint64(b[28:36]))
	for i := 0; i < count; i++ {
		rec, n, err := DecodeRecord(body)
		if err != nil {
			return nil, fmt.Errorf("%w: record %d: %v", ErrSegmentCorrupt, i, err)
		}
		rec.LSN = lsn
		lsn += LSN(n)
		s.Records = append(s.Records, rec)
		body = body[n:]
	}
	if len(body) != 0 {
		return nil, fmt.Errorf("%w: %d trailing body bytes", ErrSegmentCorrupt, len(body))
	}
	return s, nil
}

// ShipFrom builds the segment covering every stable record with
// LSN >= from, stamped with the given epoch. The records are decoded like
// SnapshotStable's, and the watermarks are captured in the same instant as
// the records — the Archive snapshot contract applied to a suffix. An
// empty result (nothing new hardened) is a valid heartbeat segment.
func (l *Log) ShipFrom(from LSN, epoch uint64) *Segment {
	recs, stable, master := l.SnapshotStable(from)
	return &Segment{Epoch: epoch, Stable: stable, Master: master, Records: recs}
}
