package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
)

// BenchmarkStoreOpen reopens a store shaped like the durable-reuse
// benchmark workload after 350 and 700 experimenter sessions. Each
// session commits a 5-cell sweep journal, a 7-cell sweep journal that
// shares 4 of its cells' keys, and a 3-cell bisect search journal; ids
// and keys are SHA-256 hex, as the server's are.
func BenchmarkStoreOpen(b *testing.B) {
	for _, sessions := range []int{350, 700} {
		b.Run(fmt.Sprintf("sessions=%d", sessions), func(b *testing.B) {
			dir := b.TempDir()
			s, err := Open(dir, Options{})
			if err != nil {
				b.Fatal(err)
			}
			header := bytes.Repeat([]byte("h"), 1500)
			record := bytes.Repeat([]byte("r"), 450)
			for i := 0; i < sessions; i++ {
				cell := func(c int) string { return hexHash("cell", i, c) }
				g := []string{cell(0), cell(1), cell(2), cell(3), cell(4)}
				g2 := []string{cell(0), cell(1), cell(2), cell(3), cell(5), cell(6), cell(7)}
				search := []string{cell(8), cell(9), cell(10)}
				for n, keys := range [][]string{g, g2, search} {
					j, err := s.Create(hexHash("journal", i, n), header)
					if err != nil {
						b.Fatal(err)
					}
					for _, key := range keys {
						if err := j.Append(key, record); err != nil {
							b.Fatal(err)
						}
					}
					if err := j.Commit(header[:200]); err != nil {
						b.Fatal(err)
					}
				}
			}
			for b.Loop() {
				if _, err := Open(dir, Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func hexHash(parts ...any) string {
	sum := sha256.Sum256([]byte(fmt.Sprint(parts...)))
	return hex.EncodeToString(sum[:])
}
