package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"repro/internal/model"
)

// On-disk framing. A segment file is the 8-byte segment magic followed by a
// sequence of records; each record is
//
//	u32 payload length | u32 CRC-32C of payload | payload
//
// and a payload is
//
//	u64 batch sequence number | u32 change count | changes
//
// where each change is a one-byte kind tag followed by its fixed-width
// little-endian int64 fields (2 for a post, 4 for a comment, 1 for a user,
// 2 for a friendship or like edge). Everything is little-endian. The CRC
// covers only the payload: a torn write corrupts either the length/CRC
// header (detected by a short read or an absurd length) or the payload
// (detected by the CRC), and either way the record and everything after it
// is discarded as the un-committed tail.

const (
	segmentMagic  = "TTCWAL01"
	recHeaderSize = 8 // u32 length + u32 crc

	// maxRecordLen bounds a record's payload so a corrupt length prefix
	// cannot drive a giant allocation. 64 MiB is far beyond any real batch
	// (a change encodes in at most 33 bytes).
	maxRecordLen = 64 << 20

	// minChangeSize is the smallest encoded change (kind byte plus one
	// int64 field); the decoder uses it to sanity-check the declared
	// change count against the bytes actually present.
	minChangeSize = 1 + 8
)

// castagnoli is the CRC-32C table; the same polynomial storage systems
// conventionally use for record checksums.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Batch is one committed update batch as stored in the log.
type Batch struct {
	// Seq is the batch's commit sequence number (1 = first committed batch
	// after the initial evaluation).
	Seq uint64
	// Changes is the batch's change set, in commit order.
	Changes []model.Change
}

// appendUint64 and friends build payloads without intermediate buffers.
func appendUint64(b []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(b, v)
}

func appendID(b []byte, v model.ID) []byte {
	return appendUint64(b, uint64(v))
}

// encodePayload serializes a batch into a record payload.
func encodePayload(dst []byte, seq uint64, changes []model.Change) ([]byte, error) {
	dst = appendUint64(dst, seq)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(changes)))
	for i := range changes {
		ch := &changes[i]
		dst = append(dst, byte(ch.Kind))
		switch ch.Kind {
		case model.KindAddPost:
			dst = appendID(dst, ch.Post.ID)
			dst = appendUint64(dst, uint64(ch.Post.Timestamp))
		case model.KindAddComment:
			dst = appendID(dst, ch.Comment.ID)
			dst = appendUint64(dst, uint64(ch.Comment.Timestamp))
			dst = appendID(dst, ch.Comment.ParentID)
			dst = appendID(dst, ch.Comment.PostID)
		case model.KindAddUser:
			dst = appendID(dst, ch.User.ID)
		case model.KindAddFriendship, model.KindRemoveFriendship:
			dst = appendID(dst, ch.Friendship.User1)
			dst = appendID(dst, ch.Friendship.User2)
		case model.KindAddLike, model.KindRemoveLike:
			dst = appendID(dst, ch.Like.UserID)
			dst = appendID(dst, ch.Like.CommentID)
		default:
			return nil, fmt.Errorf("wal: cannot encode unknown change kind %d", ch.Kind)
		}
	}
	return dst, nil
}

// byteReader walks a payload with explicit bounds checks so arbitrary bytes
// can never index out of range — decoding errors, never panics.
type byteReader struct {
	b   []byte
	off int
}

func (r *byteReader) remaining() int { return len(r.b) - r.off }

func (r *byteReader) u64() (uint64, error) {
	if r.remaining() < 8 {
		return 0, fmt.Errorf("wal: truncated payload at offset %d", r.off)
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v, nil
}

func (r *byteReader) u32() (uint32, error) {
	if r.remaining() < 4 {
		return 0, fmt.Errorf("wal: truncated payload at offset %d", r.off)
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v, nil
}

func (r *byteReader) id() (model.ID, error) {
	v, err := r.u64()
	return model.ID(v), err
}

func (r *byteReader) byte() (byte, error) {
	if r.remaining() < 1 {
		return 0, fmt.Errorf("wal: truncated payload at offset %d", r.off)
	}
	v := r.b[r.off]
	r.off++
	return v, nil
}

// decodePayload parses a record payload back into a Batch. It is total: any
// byte slice either decodes into a valid batch or returns an error.
func decodePayload(p []byte) (Batch, error) {
	r := &byteReader{b: p}
	seq, err := r.u64()
	if err != nil {
		return Batch{}, err
	}
	count, err := r.u32()
	if err != nil {
		return Batch{}, err
	}
	if int(count) > r.remaining()/minChangeSize {
		return Batch{}, fmt.Errorf("wal: change count %d exceeds payload capacity", count)
	}
	b := Batch{Seq: seq, Changes: make([]model.Change, 0, count)}
	for i := uint32(0); i < count; i++ {
		kind, err := r.byte()
		if err != nil {
			return Batch{}, err
		}
		ch := model.Change{Kind: model.ChangeKind(kind)}
		switch ch.Kind {
		case model.KindAddPost:
			if ch.Post.ID, err = r.id(); err != nil {
				return Batch{}, err
			}
			ts, err := r.u64()
			if err != nil {
				return Batch{}, err
			}
			ch.Post.Timestamp = int64(ts)
		case model.KindAddComment:
			if ch.Comment.ID, err = r.id(); err != nil {
				return Batch{}, err
			}
			ts, err := r.u64()
			if err != nil {
				return Batch{}, err
			}
			ch.Comment.Timestamp = int64(ts)
			if ch.Comment.ParentID, err = r.id(); err != nil {
				return Batch{}, err
			}
			if ch.Comment.PostID, err = r.id(); err != nil {
				return Batch{}, err
			}
		case model.KindAddUser:
			if ch.User.ID, err = r.id(); err != nil {
				return Batch{}, err
			}
		case model.KindAddFriendship, model.KindRemoveFriendship:
			if ch.Friendship.User1, err = r.id(); err != nil {
				return Batch{}, err
			}
			if ch.Friendship.User2, err = r.id(); err != nil {
				return Batch{}, err
			}
		case model.KindAddLike, model.KindRemoveLike:
			if ch.Like.UserID, err = r.id(); err != nil {
				return Batch{}, err
			}
			if ch.Like.CommentID, err = r.id(); err != nil {
				return Batch{}, err
			}
		default:
			return Batch{}, fmt.Errorf("wal: unknown change kind %d at change %d", kind, i)
		}
		b.Changes = append(b.Changes, ch)
	}
	if r.remaining() != 0 {
		return Batch{}, fmt.Errorf("wal: %d trailing bytes after %d changes", r.remaining(), count)
	}
	return b, nil
}

// fillFrameHeader writes the length/CRC header over buf's first
// recHeaderSize bytes, framing the payload that follows them — the single
// definition of the record frame layout.
func fillFrameHeader(buf []byte) {
	payload := buf[recHeaderSize:]
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.Checksum(payload, castagnoli))
}
