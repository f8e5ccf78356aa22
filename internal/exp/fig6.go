package exp

import (
	"fmt"

	"atmatrix/internal/core"
	"atmatrix/internal/numa"
)

// Fig6Row reports the simulated NUMA behaviour of one ATMULT run on the
// paper's four-socket topology (Fig. 6 / §III-F): per-node first-touch
// allocation of the result and the local fraction of operand traffic.
type Fig6Row struct {
	ID            string
	Topology      numa.Topology
	LocalBytes    int64
	RemoteBytes   int64
	LocalFraction float64
	AllocPerNode  []int64
}

// RunFig6 multiplies the selected matrices (default R3) on the paper's
// 4×10 topology and reports the placement statistics: with tile-rows
// distributed round-robin, a pair run by the team owning A's tile-row
// reads A and writes C node-locally while its B tile reads hit remote
// nodes ≈ (sockets−1)/sockets of the time — the trade-off Fig. 6
// illustrates. A pair taken by a dry team is charged to that team, so the
// local fraction also carries the price of the load balancing.
func RunFig6(o Options) ([]Fig6Row, error) {
	if len(o.IDs) == 0 {
		o.IDs = []string{"R3"}
	}
	specs, err := o.Specs()
	if err != nil {
		return nil, err
	}
	cfg := o.Config()
	cfg.Topology = numa.Paper()
	var rows []Fig6Row
	tw := newTable("ID", "local", "remote", "local%", "alloc/node")
	for _, s := range specs {
		a, err := o.Generate(s)
		if err != nil {
			return nil, fmt.Errorf("exp: generating %s: %w", s.ID, err)
		}
		am, _, err := core.Partition(a, cfg)
		if err != nil {
			return nil, fmt.Errorf("exp: partitioning %s: %w", s.ID, err)
		}
		_, stats, err := core.Multiply(am, am, cfg)
		if err != nil {
			return nil, fmt.Errorf("exp: multiplying %s: %w", s.ID, err)
		}
		row := Fig6Row{
			ID:            s.ID,
			Topology:      cfg.Topology,
			LocalBytes:    stats.Numa.LocalBytes(),
			RemoteBytes:   stats.Numa.RemoteBytes(),
			LocalFraction: stats.Numa.LocalFraction(),
		}
		alloc := make([]string, cfg.Topology.Sockets)
		for nd := 0; nd < cfg.Topology.Sockets; nd++ {
			b := stats.Numa.AllocBytes(numa.Node(nd))
			row.AllocPerNode = append(row.AllocPerNode, b)
			alloc[nd] = fmtBytes(b)
		}
		rows = append(rows, row)
		tw.addRow(row.ID, fmtBytes(row.LocalBytes), fmtBytes(row.RemoteBytes),
			fmt.Sprintf("%.1f", 100*row.LocalFraction), fmt.Sprintf("%v", alloc))
	}
	tw.render(o.out(), fmt.Sprintf("Fig. 6: simulated NUMA placement on a %d×%d topology (scale %.4g)",
		cfg.Topology.Sockets, cfg.Topology.CoresPerSocket, o.Scale))
	if err := tw.writeCSV(o.CSVDir, "fig6"); err != nil {
		return nil, err
	}
	return rows, nil
}
