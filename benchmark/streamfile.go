package main

import (
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"runtime"

	cacqr "cacqr"
	"cacqr/internal/core"
	"cacqr/internal/lin"
	"cacqr/internal/stream"
)

// stream-file: out-of-core two-pass TSQR, panel file in, Q file out.
const (
	streamM, streamN = 8192, 64
	streamPanelRows  = 1024
)

var streamFile = &workload{
	name:    wStreamFile,
	why:     "internal/stream two-pass TSQR plus file I/O: the only workload whose budget is bytes read, bytes written and resident words; kernels matter through 1024x64 panels only",
	clients: 1,
	stride:  1,
	warmups: 3,
	setup: func(e *env) (instance, error) {
		s := &streamFileInst{
			a:   cacqr.RandomMatrix(streamM, streamN, e.seed),
			in:  filepath.Join(e.tmp, "stream-in.bin"),
			out: filepath.Join(e.tmp, "stream-q.bin"),
		}
		if err := cacqr.WriteMatrixFile(s.in, cacqr.SourceFromDense(s.a), streamPanelRows); err != nil {
			return nil, err
		}
		return s, nil
	},
}

type streamFileInst struct {
	a       *cacqr.Dense
	in, out string
	// Accounting of the latest op.
	info  cacqr.StreamInfo
	flops int64
}

func (s *streamFileInst) op(int) (any, error) {
	src, err := cacqr.SourceFromFile(s.in)
	if err != nil {
		return nil, err
	}
	defer src.Close()
	res, err := cacqr.FactorizeStreaming(src, cacqr.SinkToFile(s.out), cacqr.Options{PanelRows: streamPanelRows})
	if err != nil {
		return nil, err
	}
	if res.Stream != nil {
		s.info = *res.Stream
	}
	s.flops = res.Stats.Flops
	return res.R, nil
}

// readPanels scans a panel file to EOF, handing each panel to use.
func readPanels(path string, use func(p *lin.Matrix) error) error {
	f, err := stream.OpenFile(path)
	if err != nil {
		return err
	}
	defer f.Close()
	for {
		p, err := f.Next(streamPanelRows)
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return err
		}
		if err := use(p); err != nil {
			return err
		}
	}
}

// check reads Q back from the sink file, not from memory.
func (s *streamFileInst) check(_ int, out any) error {
	r := out.(*cacqr.Dense)
	q := lin.NewMatrix(streamM, streamN)
	row := 0
	err := readPanels(s.out, func(p *lin.Matrix) error {
		if row+p.Rows > q.Rows || p.Cols != q.Cols {
			return fmt.Errorf("Q file holds more than %dx%d", q.Rows, q.Cols)
		}
		q.View(row, 0, p.Rows, p.Cols).CopyFrom(p)
		row += p.Rows
		return nil
	})
	if err != nil {
		return fmt.Errorf("reading Q back: %w", err)
	}
	if row != q.Rows {
		return fmt.Errorf("Q file holds %d rows, want %d", row, q.Rows)
	}
	if r == nil {
		return fmt.Errorf("missing factor")
	}
	_, _, err = checkQR(asLin(s.a), q, asLin(r), 0)
	return err
}

func (s *streamFileInst) close() {}

func (s *streamFileInst) layers(t *traceRun) error {
	a := asLin(s.a)
	panel := a.View(0, 0, streamPanelRows, streamN).Clone()
	scratch := filepath.Join(t.e.tmp, "stream-write-probe.bin")
	err := t.each(3, func(int) error {
		t.rootOp()
		runtime.GC()
		if err := t.rec.timed("stream.read_pass", 0, func() error { return readPanels(s.in, func(*lin.Matrix) error { return nil }) }); err != nil {
			return err
		}
		err := t.rec.timed("stream.write_pass", 0, func() error {
			f, err := stream.CreateFile(scratch, streamM, streamN)
			if err != nil {
				return err
			}
			for row := 0; row < streamM; row += streamPanelRows {
				if err := f.Append(a.View(row, 0, streamPanelRows, streamN)); err != nil {
					f.Close()
					return err
				}
			}
			return f.Close()
		})
		if err != nil {
			return err
		}
		runtime.GC()
		err = t.rec.timed("stream.factor_mem", 0, func() error {
			_, err := stream.Factorize(stream.NewDenseSource(a), stream.NewDenseSink(streamM, streamN), stream.Options{PanelRows: streamPanelRows})
			return err
		})
		if err != nil {
			return err
		}
		runtime.GC()
		if err := t.rec.timed("core.cqr2_incore", 0, func() error { _, _, err := core.CholeskyQR2(a, 0); return err }); err != nil {
			return err
		}
		t.rec.do("lin.panel_syrk", 0, func() { lin.SyrkNewParallel(0, panel) })
		return nil
	})
	if err != nil {
		return err
	}
	p50 := t.opP50()
	n := len(t.samples)
	t.setMed("stream.read_pass_s", "stream.read_pass")
	t.setMed("stream.write_pass_s", "stream.write_pass")
	inMem := t.setMed("stream.factor_mem_s", "stream.factor_mem")
	t.set("stream.io_share", 1-inMem/p50, n)
	t.set("stream.read_bytes", float64(s.info.ReadBytes), 0)
	t.set("stream.written_bytes", float64(s.info.WrittenBytes), 0)
	t.set("stream.resident_bytes", float64(s.info.MaxResidentBytes), 0)
	t.set("stream.flops", float64(s.flops), 0)
	t.set("stream.flop_ratio_vs_incore", float64(s.flops)/float64(lin.CQR2Flops(streamM, streamN)), 0)
	t.setMed("core.cqr2_incore_s", "core.cqr2_incore")
	t.setMed("lin.panel_syrk_s", "lin.panel_syrk")
	return nil
}
