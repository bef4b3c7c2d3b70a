// Storage route handlers. The durable store itself lives behind the
// engine (efd/monitor); these handlers only delegate and map errors —
// without a store every one of them answers 501.
package server

import (
	"net/http"

	"repro/efd/monitor"
)

type executionsResponse struct {
	Executions []monitor.ExecutionInfo `json:"executions"`
	Total      int                     `json:"total"`
}

// handleJobSeries serves GET /v1/jobs/{id}/series from the store:
// live jobs get a snapshot of their accumulated columns, finished
// ones their stored execution.
func (s *Server) handleJobSeries(w http.ResponseWriter, r *http.Request) {
	dump, err := s.Series(r.PathValue("id"))
	if err != nil {
		engineError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, dump)
}

// handleExecutions serves GET /v1/executions: the stored executions.
func (s *Server) handleExecutions(w http.ResponseWriter, r *http.Request) {
	execs, err := s.Executions()
	if err != nil {
		engineError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, executionsResponse{Executions: execs, Total: len(execs)})
}

// handleRecognize serves POST /v1/executions/{id}/recognize: a stored
// execution re-recognized with the current dictionary.
func (s *Server) handleRecognize(w http.ResponseWriter, r *http.Request) {
	state, err := s.RecognizeStored(r.PathValue("id"))
	if err != nil {
		engineError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, state)
}
