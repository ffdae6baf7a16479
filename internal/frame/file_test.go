package frame

import (
	"os"
	"path/filepath"
	"testing"
)

func TestChecksumTrailer(t *testing.T) {
	body := []byte("link cache")
	blob := AppendChecksum(append([]byte(nil), body...))
	if len(blob) != len(body)+checksumSize {
		t.Fatalf("trailer is %d bytes", len(blob)-len(body))
	}
	got, ok := CutChecksum(blob)
	if !ok || string(got) != string(body) {
		t.Fatalf("CutChecksum = %q, %v", got, ok)
	}
	for i := range blob {
		bad := append([]byte(nil), blob...)
		bad[i] ^= 0x40
		if _, ok := CutChecksum(bad); ok {
			t.Fatalf("bit flip at byte %d verified", i)
		}
	}
	for n := 0; n < len(blob); n++ {
		if _, ok := CutChecksum(blob[:n]); ok {
			t.Fatalf("blob truncated to %d bytes verified", n)
		}
	}
}

// TestWriteFileAtomicFailureLeavesNothing: a write that cannot land
// (the path is a non-empty directory) reports the error and removes
// its temp file.
func TestWriteFileAtomicFailureLeavesNothing(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "taken")
	if err := os.MkdirAll(filepath.Join(path, "child"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(path, []byte("data")); err == nil {
		t.Fatal("rename over a non-empty directory succeeded")
	}
	names, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 {
		t.Fatalf("temp files left behind: %v", names)
	}
}
