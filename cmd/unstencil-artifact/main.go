// Command unstencil-artifact packs, inspects, and verifies unstencil's
// persistent binary artifacts offline — the same files unstencild's store
// reads and writes, so operators packed here are picked up by a cold-started
// server without any assembly.
//
// Usage:
//
//	unstencil-artifact pack -mesh mesh.json -store /var/lib/unstencil/store [-p 2] [-boundary periodic] [-field sincos]
//	unstencil-artifact inspect /var/lib/unstencil/store/op-<hash>.art
//	unstencil-artifact verify /var/lib/unstencil/store/*.art
//
// pack decodes a mesh, projects the requested field, assembles the operator
// for (mesh, P, grid, boundary), and writes all three artifacts into the
// store directory under the exact logical keys unstencild uses — a deploy
// can pre-warm a store before the service ever starts. inspect prints one
// artifact's header, sections, and metadata. verify re-reads every section
// of each file and checks its CRC, exiting non-zero on the first failure.
package main

import (
	"flag"
	"fmt"
	"os"

	"unstencil/internal/artifact"
	"unstencil/internal/core"
	"unstencil/internal/dg"
	"unstencil/internal/mesh"
	"unstencil/internal/server"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "pack":
		pack(os.Args[2:])
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
  unstencil-artifact pack -mesh <mesh.json> -store <dir> [-p N] [-grid-degree N] [-boundary periodic|one-sided] [-field name|none]
  unstencil-artifact inspect <file.art>
  unstencil-artifact verify <file.art> [...]`)
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "unstencil-artifact:", err)
	os.Exit(1)
}

// pack pre-computes a store entry set for one mesh: the mesh itself, the
// projected field, and the assembled operator, all under the keys the
// server's tiered lookup resolves.
func pack(args []string) {
	fs := flag.NewFlagSet("pack", flag.ExitOnError)
	meshPath := fs.String("mesh", "", "mesh JSON file (required)")
	storeDir := fs.String("store", "", "artifact store directory (required)")
	p := fs.Int("p", 2, "dG polynomial order")
	gridDegree := fs.Int("grid-degree", 0, "evaluation-grid quadrature degree (0 = 2P, negative = one-point)")
	boundaryName := fs.String("boundary", "periodic", "boundary handling: periodic or one-sided")
	fieldName := fs.String("field", "sincos", "analytic field to project and persist (none to skip)")
	workers := fs.Int("workers", 0, "assembly concurrency (0 = GOMAXPROCS)")
	_ = fs.Parse(args)
	if *meshPath == "" || *storeDir == "" {
		fs.Usage()
		os.Exit(2)
	}

	var boundary core.Boundary
	switch *boundaryName {
	case "periodic":
		boundary = core.Periodic
	case "one-sided":
		boundary = core.OneSided
	default:
		fatal(fmt.Errorf("bad -boundary %q (want periodic or one-sided)", *boundaryName))
	}
	fn, ok := server.FieldFuncs[*fieldName]
	if !ok && *fieldName != "none" {
		fatal(fmt.Errorf("unknown -field %q (have %v, or none)", *fieldName, server.FieldNames()))
	}

	f, err := os.Open(*meshPath)
	if err != nil {
		fatal(err)
	}
	m, err := mesh.Decode(f)
	f.Close()
	if err != nil {
		fatal(fmt.Errorf("decode %s: %w", *meshPath, err))
	}
	store, err := artifact.NewStore(*storeDir, nil)
	if err != nil {
		fatal(err)
	}
	meshID, err := store.SaveMesh(m)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("mesh     %s\n         -> %s\n", meshID, store.Path("mesh:"+meshID))

	if *fieldName == "none" {
		return
	}
	field := dg.Project(m, *p, fn, 4)
	fieldKey := fmt.Sprintf("field:%s/p%d/%s", meshID, *p, *fieldName)
	if err := store.SaveField(fieldKey, field); err != nil {
		fatal(err)
	}
	fmt.Printf("field    %s\n         -> %s\n", fieldKey, store.Path(fieldKey))

	ev, err := core.NewEvaluator(field, core.Options{
		P: *p, GridDegree: *gridDegree, Boundary: boundary, Workers: *workers,
	})
	if err != nil {
		fatal(err)
	}
	op, err := ev.AssembleOperator(core.AssembleOpts{})
	if err != nil {
		fatal(err)
	}
	// The evaluator's normalized grid degree, so the key matches what a
	// running unstencild computes for the same job parameters.
	opKey := server.OpKey(meshID, *p, ev.Opt.GridDegree, boundary)
	if err := store.SaveOperator(opKey, op); err != nil {
		fatal(err)
	}
	st := op.Stats()
	fmt.Printf("operator %s\n         -> %s (%d x %d, %d nnz, %d distinct weight blocks, %s wall)\n",
		opKey, store.Path(opKey), st.Rows, st.Cols, st.NNZ, st.UniqueBlocks, op.AssemblyWall)
	if cs := op.Congruence; cs != nil {
		fmt.Printf("         congruence: %d classes, %d/%d rows stamped, %d demoted\n",
			cs.Classes, cs.RowsStamped, cs.Rows, cs.RowsDemoted)
	}
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
	case artifact.KindField:
		if meta, coeffs, err := c.DecodeField(""); err == nil {
			fmt.Printf("  field    P%d, %d elems x %d modes (%d coeffs), mesh %s\n",
				meta.P, meta.NumElems, meta.BasisN, len(coeffs), meta.MeshHash)
		}
	case artifact.KindOperator:
		if op, err := c.DecodeOperator(""); err == nil {
			st := op.Stats()
			fmt.Printf("  operator %d x %d, %d nnz (%.1f/row), basis %d, %d distinct weight blocks, scheme %s, assembled in %s\n",
				st.Rows, st.Cols, st.NNZ, st.NNZPerRow, op.BasisN, st.UniqueBlocks, op.AssemblyScheme, op.AssemblyWall)
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
