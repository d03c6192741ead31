// Scaling study: ask the planner for the best processor-grid shape for a
// QR factorization on a Stampede2-like machine, and compare CA-CQR2
// against the ScaLAPACK-style baseline — the deployment question the
// paper's evaluation answers.
//
//	go run ./examples/scaling [-m rows] [-n cols]
package main

import (
	"flag"
	"fmt"
	"log"
)

import cacqr "cacqr"

func main() {
	m := flag.Int("m", 1<<21, "matrix rows")
	n := flag.Int("n", 1<<12, "matrix columns")
	flag.Parse()

	mach := cacqr.Stampede2
	fmt.Printf("predicted QR performance for a %d x %d matrix on %s (%d processes/node)\n\n",
		*m, *n, mach.Name, mach.PPN)
	fmt.Printf("%-8s  %-30s  %-12s  %-22s  %-10s\n",
		"nodes", "best CA-CQR2 plan", "GF/s/node", "best ScaLAPACK grid", "GF/s/node")

	for _, nodes := range []int{64, 128, 256, 512, 1024} {
		// One planner query per node count: the ranked rows hold the best
		// plan of the CA-CQR2 family (its c = 1 member is 1D-CQR2) and,
		// with IncludeBaselines, the cheapest PGEQRF configuration.
		rows, err := cacqr.PlanGrid(*m, *n, mach.PPN*nodes, cacqr.Options{IncludeBaselines: true, PlanMachine: &mach})
		if err != nil {
			log.Fatal(err)
		}
		var cq, sc *cacqr.Plan
		for i := range rows {
			switch rows[i].Variant {
			case cacqr.VariantCACQR2, cacqr.VariantPanelCACQR2:
				if cq == nil {
					cq = &rows[i]
				}
			case cacqr.VariantPGEQRF:
				sc = &rows[i]
			}
		}
		label := func(p *cacqr.Plan) (string, float64) {
			if p == nil {
				return "-", 0
			}
			s := string(p.Variant) + " " + p.GridString()
			if p.PanelWidth > 0 {
				s += fmt.Sprintf(" b=%d", p.PanelWidth)
			}
			return s, cacqr.PredictGFlopsPerNode(mach, p.Cost, *m, *n, nodes)
		}
		cqLabel, cqGF := label(cq)
		scLabel, scGF := label(sc)
		fmt.Printf("%-8d  %-30s  %-12.1f  %-22s  %-10.1f\n", nodes, cqLabel, cqGF, scLabel, scGF)
	}

	fmt.Println("\nlarger c trades extra synchronization and flops for less communication;")
	fmt.Println("the winning c grows with node count, as in the paper's Figures 6-7.")
}
