package engine

// PlanForTest exposes getPlan to the external tests: the cached plan for
// sql, compared by identity, and the query info the monitor keys its
// signature cache on.
func (e *Engine) PlanForTest(sql string) (any, *QueryInfo, error) {
	cp, _, err := e.getPlan(sql)
	if err != nil {
		return nil, nil, err
	}
	return cp, &QueryInfo{Logical: cp.logical, Physical: cp.physical}, nil
}
