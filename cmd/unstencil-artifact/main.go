// Command unstencil-artifact packs, inspects, and verifies unstencil's
// persistent binary artifacts offline — the same files unstencild's store
// reads and writes, so operators packed here are picked up by a cold-started
// server without any assembly.
//
// Usage:
//
//	unstencil-artifact pack -mesh mesh.json -store /var/lib/unstencil/store [-p 2] [-boundary periodic]
//	unstencil-artifact inspect /var/lib/unstencil/store/op-<hash>.art
//	unstencil-artifact verify /var/lib/unstencil/store/*.art
//
// pack decodes a mesh, assembles the operator for (mesh, P, grid,
// boundary), and writes both into the store directory through the same
// artifact layer unstencild uses — a deploy can pre-warm a store before
// the service ever starts. Fields are not stored: the server projects them.
// inspect prints one artifact's header, sections, and metadata. verify
// re-reads every section of each file and checks its CRC, exiting non-zero
// on the first failure.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"unstencil/internal/artifact"
	"unstencil/internal/mesh"
	"unstencil/internal/server"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "pack":
		if err := pack(os.Args[2:]); err != nil {
			fatal(err)
		}
	case "inspect":
		inspect(os.Args[2:])
	case "verify":
		verify(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  unstencil-artifact pack -mesh <mesh.json> -store <dir> [-p N] [-grid-degree N] [-boundary periodic|one-sided] [-workers N]
  unstencil-artifact inspect <file.art>
  unstencil-artifact verify <file.art> [...]`)
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "unstencil-artifact:", err)
	os.Exit(1)
}

// pack pre-computes a store entry set for one mesh: the mesh itself and the
// assembled operator. It resolves both through server.Artifacts over the
// store, as a running unstencild does, so the keys are the ones the
// server's tiered lookup resolves; an operator the store already holds is
// loaded, not re-assembled.
func pack(args []string) error {
	fs := flag.NewFlagSet("pack", flag.ExitOnError)
	meshPath := fs.String("mesh", "", "mesh JSON file (required)")
	storeDir := fs.String("store", "", "artifact store directory (required)")
	p := fs.Int("p", 2, "dG polynomial order")
	gridDegree := fs.Int("grid-degree", 0, "evaluation-grid quadrature degree (0 = 2P, negative = one-point)")
	boundaryName := fs.String("boundary", "periodic", "boundary handling: periodic or one-sided")
	workers := fs.Int("workers", 0, "assembly concurrency (0 = GOMAXPROCS)")
	_ = fs.Parse(args)
	if *meshPath == "" || *storeDir == "" {
		return errors.New("pack needs -mesh and -store")
	}
	boundary, err := server.ParseBoundary(*boundaryName)
	if err != nil {
		return err
	}
	f, err := os.Open(*meshPath)
	if err != nil {
		return err
	}
	m, err := mesh.Decode(f)
	f.Close()
	if err != nil {
		return fmt.Errorf("decode %s: %w", *meshPath, err)
	}
	store, err := artifact.NewStore(*storeDir, nil)
	if err != nil {
		return err
	}
	arts := server.NewArtifacts(server.NewCache(1<<40), *workers)
	arts.SetStore(store)
	meshID, err := arts.PutMesh(m)
	if err != nil {
		return err
	}
	fmt.Printf("mesh     %s\n         -> %s\n", meshID, store.Path("mesh:"+meshID))

	// The operator does not depend on the field; the evaluator needs one,
	// so it gets the server's default.
	ev, _, err := arts.Evaluator(m, meshID, *p, *gridDegree, boundary, "sincos")
	if err != nil {
		return err
	}
	start := time.Now()
	op, src, err := arts.Operator(ev, meshID)
	if err != nil {
		return err
	}
	if n := store.Counters().WriteErrors.Load(); n > 0 { // Artifacts only logs these
		return fmt.Errorf("%d artifact write(s) to %s failed", n, store.Dir())
	}
	st := op.Stats()
	fmt.Printf("operator %s in %s (%d x %d, %d nnz, %d distinct weight blocks) -> %s\n",
		src, time.Since(start), st.Rows, st.Cols, st.NNZ, st.UniqueBlocks, store.Dir())
	return json.NewEncoder(os.Stdout).Encode(map[string]any{"operator": arts.Ops(), "store": store.Counters()})
}

func openContainer(path string) (*artifact.Container, *os.File, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, 0, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, nil, 0, err
	}
	c, err := artifact.Parse(f, fi.Size())
	if err != nil {
		f.Close()
		return nil, nil, 0, err
	}
	return c, f, fi.Size(), nil
}

// inspect prints one artifact's structure without requiring its key.
func inspect(args []string) {
	if len(args) != 1 {
		usage()
	}
	c, f, size, err := openContainer(args[0])
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	key, err := c.Key()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s\n  kind     %s (format v%d)\n  size     %d bytes\n  key      %s\n  sections %d\n",
		args[0], artifact.KindName(c.Kind), c.Version, size, key, len(c.Sections))
	for _, s := range c.Sections {
		fmt.Printf("    type %-3d crc %08x  [%8d, +%d)\n", s.Type, s.CRC, s.Offset, s.Length)
	}
	switch c.Kind {
	case artifact.KindMesh:
		if m, err := c.DecodeMesh(""); err == nil {
			fmt.Printf("  mesh     %d verts, %d tris, hash %s\n", m.NumVerts(), m.NumTris(), m.ContentHash())
		}
	case artifact.KindOperator:
		if op, err := c.DecodeOperator(""); err == nil {
			st := op.Stats()
			fmt.Printf("  operator %d x %d, %d nnz (%.1f/row), basis %d, %d distinct weight blocks\n",
				st.Rows, st.Cols, st.NNZ, st.NNZPerRow, op.BasisN, st.UniqueBlocks)
		}
	}
}

// verify CRC-checks every section of every named file.
func verify(args []string) {
	if len(args) == 0 {
		usage()
	}
	failed := false
	for _, path := range args {
		c, f, _, err := openContainer(path)
		if err == nil {
			err = c.VerifyAll()
			f.Close()
		}
		if err != nil {
			failed = true
			fmt.Printf("%-60s FAIL  %v\n", path, err)
			continue
		}
		fmt.Printf("%-60s OK    %s, %d sections\n", path, artifact.KindName(c.Kind), len(c.Sections))
	}
	if failed {
		os.Exit(1)
	}
}
