package wal

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/model"
)

// The version-1 snapshot encoder. Nothing in the program writes version 1
// any more, but recovery still decodes it (an existing durability directory
// may hold a version-1 seed snapshot), so the tests keep the encoder as the
// decoder's fixture and as the canonical single-buffer form of a snapshot.

// encodeSnapshot serializes the model state as of sequence number seq in
// the version-1 format.
func encodeSnapshot(seq, meta uint64, s *model.Snapshot) []byte {
	size := len(snapshotMagic) + 2*8 + 5*8 +
		len(s.Posts)*16 + len(s.Comments)*32 + len(s.Users)*8 +
		len(s.Friendships)*16 + len(s.Likes)*16 + 4
	b := make([]byte, 0, size)
	b = append(b, snapshotMagic...)
	b = appendUint64(b, seq)
	b = appendUint64(b, meta)
	b = appendSnapshotArrays(b, s)
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b[len(snapshotMagic):], castagnoli))
}

// appendSnapshotArrays encodes the five entity arrays — the body layout
// both versions share.
func appendSnapshotArrays(b []byte, s *model.Snapshot) []byte {
	b = appendUint64(b, uint64(len(s.Posts)))
	for _, p := range s.Posts {
		b = appendPostRec(b, p)
	}
	b = appendUint64(b, uint64(len(s.Comments)))
	for _, c := range s.Comments {
		b = appendCommentRec(b, c)
	}
	b = appendUint64(b, uint64(len(s.Users)))
	for _, u := range s.Users {
		b = appendUserRec(b, u)
	}
	b = appendUint64(b, uint64(len(s.Friendships)))
	for _, f := range s.Friendships {
		b = appendFriendshipRec(b, f)
	}
	b = appendUint64(b, uint64(len(s.Likes)))
	for _, l := range s.Likes {
		b = appendLikeRec(b, l)
	}
	return b
}

// writeSnapshotV1 places a version-1 snapshot file in dir, as an older
// build of the log would have left it.
func writeSnapshotV1(t *testing.T, dir string, seq, meta uint64, s *model.Snapshot) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, snapshotName(seq)), encodeSnapshot(seq, meta, s), 0o644); err != nil {
		t.Fatal(err)
	}
}
