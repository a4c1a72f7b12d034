package main

import (
	"testing"

	"repro/internal/model"
)

// TestSummarizeChanges doubles as the build-level smoke test: having any
// test in this package makes `go test ./...` compile the binary.
func TestSummarizeChanges(t *testing.T) {
	got := summarizeChanges([]model.Change{
		{Kind: model.KindAddUser, User: model.User{ID: 1}},
		{Kind: model.KindAddUser, User: model.User{ID: 2}},
		{Kind: model.KindAddLike, Like: model.Like{UserID: 1, CommentID: 9}},
	})
	want := "AddUser×2 AddLike×1"
	if got != want {
		t.Errorf("summarizeChanges = %q, want %q", got, want)
	}
	if got := summarizeChanges(nil); got != "" {
		t.Errorf("summarizeChanges(nil) = %q, want empty", got)
	}
}
