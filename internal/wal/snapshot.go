package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"repro/internal/model"
)

// Snapshot file formats.
//
// Version 1 ("TTCSNAP1") is a single buffer. Nothing writes it any more,
// but it is still decoded, because an existing durability directory may
// hold a version-1 seed snapshot:
//
//	8-byte magic | body | u32 CRC-32C of body
//
// where the body is the snapshot's commit sequence number, the caller's
// metadata word, and the five entity arrays, each as a u64 count and
// fixed-width little-endian int64 fields (see record.go for the per-entity
// field lists).
//
// Version 2 ("TTCSNAP2", written by WriteSnapshotStream) is chunked so the
// encoder can stream a large model straight to the file through a bounded
// buffer instead of materializing the whole image in memory (and so the
// serving writer never stalls for the encode — it hands off a
// copy-on-write view and keeps committing):
//
//	8-byte magic | u64 seq | u64 meta | u32 CRC-32C of seq+meta |
//	( u32 len>0 | u32 CRC-32C of chunk | chunk bytes )* |
//	u32 0 | u32 chunk count
//
// The chunk payloads concatenate to exactly a version-1 body's entity
// arrays; chunk boundaries carry no meaning beyond the encoder's buffer
// limit. Every chunk carries its own CRC, so corruption is localized and
// detected without buffering the whole file's checksum state, and the
// zero-length terminator (whose CRC field holds the chunk count) proves
// the image is complete.
//
// Snapshots are written to a temp file, fsynced, and renamed into place,
// so a visible snap-*.snap is always complete; the CRCs guard against
// latent media corruption, and the loader falls back to the previous
// snapshot if the newest fails them. decodeSnapshot dispatches on
// the magic, so a durability directory can mix versions across upgrades.

const (
	snapshotMagic   = "TTCSNAP1"
	snapshotMagicV2 = "TTCSNAP2"

	// defaultSnapChunk is the streaming encoder's buffer bound: chunks are
	// flushed once they reach this size (plus at most one entity).
	defaultSnapChunk = 256 << 10

	// maxSnapChunkLen bounds a declared chunk length so a corrupt length
	// field cannot drive a giant allocation before the remaining-bytes
	// check would catch it.
	maxSnapChunkLen = 64 << 20
)

// Per-entity field encoders — the single definition of each entity's body
// layout (parseSnapshotArrays is the one decoder for both versions).
func appendPostRec(b []byte, p model.Post) []byte {
	b = appendID(b, p.ID)
	return appendUint64(b, uint64(p.Timestamp))
}

func appendCommentRec(b []byte, c model.Comment) []byte {
	b = appendID(b, c.ID)
	b = appendUint64(b, uint64(c.Timestamp))
	b = appendID(b, c.ParentID)
	return appendID(b, c.PostID)
}

func appendUserRec(b []byte, u model.User) []byte {
	return appendID(b, u.ID)
}

func appendFriendshipRec(b []byte, f model.Friendship) []byte {
	b = appendID(b, f.User1)
	return appendID(b, f.User2)
}

func appendLikeRec(b []byte, l model.Like) []byte {
	b = appendID(b, l.UserID)
	return appendID(b, l.CommentID)
}

// chunkWriter frames the streaming encoder's output: entities accumulate
// in a bounded buffer that is flushed as one CRC-checked chunk whenever it
// reaches the limit. onChunk (when non-nil) observes progress after every
// flushed chunk; returning an error aborts the stream.
type chunkWriter struct {
	w       io.Writer
	buf     []byte
	limit   int
	chunks  uint32
	written int64
	onChunk func(written int) error
}

func (cw *chunkWriter) flush() error {
	if len(cw.buf) == 0 {
		return nil
	}
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(cw.buf)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(cw.buf, castagnoli))
	if _, err := cw.w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := cw.w.Write(cw.buf); err != nil {
		return err
	}
	cw.written += int64(len(hdr)) + int64(len(cw.buf))
	cw.chunks++
	cw.buf = cw.buf[:0]
	if cw.onChunk != nil {
		return cw.onChunk(int(cw.written))
	}
	return nil
}

func (cw *chunkWriter) maybeFlush() error {
	if len(cw.buf) >= cw.limit {
		return cw.flush()
	}
	return nil
}

// terminator flushes the final partial chunk and writes the zero-length
// end marker carrying the chunk count.
func (cw *chunkWriter) terminator() error {
	if err := cw.flush(); err != nil {
		return err
	}
	var end [8]byte
	binary.LittleEndian.PutUint32(end[4:8], cw.chunks)
	if _, err := cw.w.Write(end[:]); err != nil {
		return err
	}
	cw.written += int64(len(end))
	return nil
}

// encodeSnapshotStream writes a version-2 snapshot to w chunk by chunk,
// never holding more than ~chunkBytes of encoded state in memory.
func encodeSnapshotStream(w io.Writer, seq, meta uint64, s *model.Snapshot, chunkBytes int, onChunk func(int) error) error {
	if chunkBytes <= 0 {
		chunkBytes = defaultSnapChunk
	}
	var hdr []byte
	hdr = append(hdr, snapshotMagicV2...)
	hdr = appendUint64(hdr, seq)
	hdr = appendUint64(hdr, meta)
	hdr = binary.LittleEndian.AppendUint32(hdr, crc32.Checksum(hdr[len(snapshotMagicV2):], castagnoli))
	if _, err := w.Write(hdr); err != nil {
		return err
	}

	cw := &chunkWriter{w: w, buf: make([]byte, 0, chunkBytes+64), limit: chunkBytes, onChunk: onChunk}
	// Each entity is appended whole, then the buffer is flushed if it
	// crossed the limit — a chunk never splits an entity's fields, but that
	// is an encoder convenience, not a format guarantee the decoder relies
	// on (it reassembles the body before parsing).
	cw.buf = appendUint64(cw.buf, uint64(len(s.Posts)))
	for _, p := range s.Posts {
		cw.buf = appendPostRec(cw.buf, p)
		if err := cw.maybeFlush(); err != nil {
			return err
		}
	}
	cw.buf = appendUint64(cw.buf, uint64(len(s.Comments)))
	for _, c := range s.Comments {
		cw.buf = appendCommentRec(cw.buf, c)
		if err := cw.maybeFlush(); err != nil {
			return err
		}
	}
	cw.buf = appendUint64(cw.buf, uint64(len(s.Users)))
	for _, u := range s.Users {
		cw.buf = appendUserRec(cw.buf, u)
		if err := cw.maybeFlush(); err != nil {
			return err
		}
	}
	cw.buf = appendUint64(cw.buf, uint64(len(s.Friendships)))
	for _, f := range s.Friendships {
		cw.buf = appendFriendshipRec(cw.buf, f)
		if err := cw.maybeFlush(); err != nil {
			return err
		}
	}
	cw.buf = appendUint64(cw.buf, uint64(len(s.Likes)))
	for _, l := range s.Likes {
		cw.buf = appendLikeRec(cw.buf, l)
		if err := cw.maybeFlush(); err != nil {
			return err
		}
	}
	return cw.terminator()
}

// decodeSnapshot parses an encoded snapshot of either version. Like
// decodePayload it is total: arbitrary bytes decode or error, never panic.
func decodeSnapshot(data []byte) (seq, meta uint64, _ *model.Snapshot, _ error) {
	if len(data) >= len(snapshotMagicV2) && string(data[:len(snapshotMagicV2)]) == snapshotMagicV2 {
		return decodeSnapshotV2(data)
	}
	fail := func(err error) (uint64, uint64, *model.Snapshot, error) { return 0, 0, nil, err }
	if len(data) < len(snapshotMagic)+2*8+4 {
		return fail(fmt.Errorf("wal: snapshot too short (%d bytes)", len(data)))
	}
	if string(data[:len(snapshotMagic)]) != snapshotMagic {
		return fail(fmt.Errorf("wal: bad snapshot magic %q", data[:len(snapshotMagic)]))
	}
	body := data[len(snapshotMagic) : len(data)-4]
	wantCRC := binary.LittleEndian.Uint32(data[len(data)-4:])
	if crc32.Checksum(body, castagnoli) != wantCRC {
		return fail(fmt.Errorf("wal: snapshot checksum mismatch"))
	}

	r := &byteReader{b: body}
	seq, err := r.u64()
	if err != nil {
		return fail(err)
	}
	meta, err = r.u64()
	if err != nil {
		return fail(err)
	}
	s, err := parseSnapshotArrays(r)
	if err != nil {
		return fail(err)
	}
	return seq, meta, s, nil
}

// decodeSnapshotV2 parses the chunked streaming format: header CRC, then
// per-chunk CRCs, then the terminator's chunk count, then the reassembled
// body. Total like every decoder on the recovery path.
func decodeSnapshotV2(data []byte) (seq, meta uint64, _ *model.Snapshot, _ error) {
	fail := func(err error) (uint64, uint64, *model.Snapshot, error) { return 0, 0, nil, err }
	hdrLen := len(snapshotMagicV2) + 2*8 + 4
	if len(data) < hdrLen+8 {
		return fail(fmt.Errorf("wal: snapshot too short (%d bytes)", len(data)))
	}
	hdrBody := data[len(snapshotMagicV2) : hdrLen-4]
	if crc32.Checksum(hdrBody, castagnoli) != binary.LittleEndian.Uint32(data[hdrLen-4:hdrLen]) {
		return fail(fmt.Errorf("wal: snapshot header checksum mismatch"))
	}
	seq = binary.LittleEndian.Uint64(hdrBody[0:8])
	meta = binary.LittleEndian.Uint64(hdrBody[8:16])

	var body []byte
	chunks := uint32(0)
	off := hdrLen
	for {
		if len(data)-off < 8 {
			return fail(fmt.Errorf("wal: snapshot truncated before chunk %d terminator", chunks))
		}
		length := binary.LittleEndian.Uint32(data[off : off+4])
		crc := binary.LittleEndian.Uint32(data[off+4 : off+8])
		off += 8
		if length == 0 {
			if crc != chunks {
				return fail(fmt.Errorf("wal: snapshot terminator claims %d chunks, read %d", crc, chunks))
			}
			break
		}
		if length > maxSnapChunkLen {
			return fail(fmt.Errorf("wal: snapshot chunk length %d exceeds limit", length))
		}
		if int(length) > len(data)-off {
			return fail(fmt.Errorf("wal: snapshot chunk %d of %d bytes exceeds remaining %d", chunks, length, len(data)-off))
		}
		chunk := data[off : off+int(length)]
		if crc32.Checksum(chunk, castagnoli) != crc {
			return fail(fmt.Errorf("wal: snapshot chunk %d checksum mismatch", chunks))
		}
		body = append(body, chunk...)
		off += int(length)
		chunks++
	}
	if off != len(data) {
		return fail(fmt.Errorf("wal: %d trailing bytes after snapshot terminator", len(data)-off))
	}
	s, err := parseSnapshotArrays(&byteReader{b: body})
	if err != nil {
		return fail(err)
	}
	return seq, meta, s, nil
}

// parseSnapshotArrays decodes the five entity arrays — the shared body
// layout — consuming the reader fully.
func parseSnapshotArrays(r *byteReader) (*model.Snapshot, error) {
	s := &model.Snapshot{}

	// count validates an array length against the bytes actually present;
	// zero counts leave the slice nil so a decoded snapshot is DeepEqual to
	// the encoded one.
	count := func(entrySize int) (int, error) {
		n, err := r.u64()
		if err != nil {
			return 0, err
		}
		if n > uint64(r.remaining()/entrySize) {
			return 0, fmt.Errorf("wal: snapshot count %d exceeds remaining bytes", n)
		}
		return int(n), nil
	}

	n, err := count(16)
	if err != nil {
		return nil, err
	}
	if n > 0 {
		s.Posts = make([]model.Post, n)
	}
	for i := range s.Posts {
		s.Posts[i].ID, _ = r.id()
		ts, err := r.u64()
		if err != nil {
			return nil, err
		}
		s.Posts[i].Timestamp = int64(ts)
	}

	if n, err = count(32); err != nil {
		return nil, err
	}
	if n > 0 {
		s.Comments = make([]model.Comment, n)
	}
	for i := range s.Comments {
		s.Comments[i].ID, _ = r.id()
		ts, err := r.u64()
		if err != nil {
			return nil, err
		}
		s.Comments[i].Timestamp = int64(ts)
		s.Comments[i].ParentID, _ = r.id()
		if s.Comments[i].PostID, err = r.id(); err != nil {
			return nil, err
		}
	}

	if n, err = count(8); err != nil {
		return nil, err
	}
	if n > 0 {
		s.Users = make([]model.User, n)
	}
	for i := range s.Users {
		if s.Users[i].ID, err = r.id(); err != nil {
			return nil, err
		}
	}

	if n, err = count(16); err != nil {
		return nil, err
	}
	if n > 0 {
		s.Friendships = make([]model.Friendship, n)
	}
	for i := range s.Friendships {
		s.Friendships[i].User1, _ = r.id()
		if s.Friendships[i].User2, err = r.id(); err != nil {
			return nil, err
		}
	}

	if n, err = count(16); err != nil {
		return nil, err
	}
	if n > 0 {
		s.Likes = make([]model.Like, n)
	}
	for i := range s.Likes {
		s.Likes[i].UserID, _ = r.id()
		if s.Likes[i].CommentID, err = r.id(); err != nil {
			return nil, err
		}
	}

	if r.remaining() != 0 {
		return nil, fmt.Errorf("wal: %d trailing bytes after snapshot body", r.remaining())
	}
	return s, nil
}

// loadLatestSnapshot finds the newest snapshot file that decodes cleanly
// (falling back over invalid ones). ok is false when no valid snapshot
// exists; err reports only filesystem-level failures.
func loadLatestSnapshot(dir string) (s *model.Snapshot, seq, meta uint64, ok bool, err error) {
	names, err := listSeqFiles(dir, "snap-", ".snap")
	if err != nil {
		return nil, 0, 0, false, err
	}
	for i := len(names) - 1; i >= 0; i-- {
		data, err := os.ReadFile(filepath.Join(dir, names[i]))
		if err != nil {
			continue
		}
		seq, meta, s, err := decodeSnapshot(data)
		if err != nil {
			continue // fall back to the previous snapshot
		}
		return s, seq, meta, true, nil
	}
	return nil, 0, 0, false, nil
}
