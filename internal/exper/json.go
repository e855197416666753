package exper

import (
	"encoding/json"
	"io"
)

// jsonReport is the machine-readable form of a Report, for piping boltbench
// output into plotting tools.
type jsonReport struct {
	ID      string             `json:"id"`
	Title   string             `json:"title"`
	Metrics map[string]float64 `json:"metrics"`
	Tables  []jsonTable        `json:"tables,omitempty"`
	Series  []jsonSeries       `json:"series,omitempty"`
	Notes   []string           `json:"notes,omitempty"`
}

type jsonTable struct {
	Title   string     `json:"title"`
	Headers []string   `json:"headers"`
	Rows    [][]string `json:"rows"`
}

type jsonSeries struct {
	Figure string    `json:"figure"`
	Name   string    `json:"name"`
	X      []float64 `json:"x"`
	Y      []float64 `json:"y"`
}

// WriteAllJSON emits one JSON document holding the seed and every report,
// in order. A run's machine-readable output is a single valid document —
// consumers unmarshal one object rather than splitting a stream of
// concatenated ones.
func WriteAllJSON(w io.Writer, seed uint64, reports []*Report) error {
	doc := struct {
		Seed    uint64       `json:"seed"`
		Reports []jsonReport `json:"reports"`
	}{Seed: seed, Reports: make([]jsonReport, 0, len(reports))}
	for _, r := range reports {
		doc.Reports = append(doc.Reports, r.toJSON())
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

func (r *Report) toJSON() jsonReport {
	out := jsonReport{
		ID:      r.ID,
		Title:   r.Title,
		Metrics: r.Metrics,
		Notes:   r.Notes,
	}
	for _, t := range r.Tables {
		out.Tables = append(out.Tables, jsonTable{
			Title:   t.Title,
			Headers: t.Headers,
			Rows:    t.Rows,
		})
	}
	for _, f := range r.Figures {
		for _, s := range f.Series {
			out.Series = append(out.Series, jsonSeries{
				Figure: f.Title,
				Name:   s.Name,
				X:      s.X,
				Y:      s.Y,
			})
		}
	}
	return out
}
