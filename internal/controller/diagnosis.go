package controller

import "sharebackup/internal/sbnet"

// DiagnosisResult reports the outcome of offline diagnosis for one suspect
// interface.
type DiagnosisResult struct {
	Suspect EndPoint
	// Healthy is true when the suspect interface had connectivity in at
	// least one probe configuration and the switch was exonerated.
	Healthy bool
	// Partners lists the interfaces the suspect was tested against
	// (up to three, per Figure 4's configurations 1-3).
	Partners []EndPoint
	// Exonerated is true when the switch was returned to the backup pool.
	Exonerated bool
	// Skipped is true when the suspect could not be probed offline: it is
	// still active (its group had no backup to replace it with) or was
	// already cleared by an earlier diagnosis or repair. Offline
	// diagnosis only ever involves switches already taken offline
	// (Section 4.2).
	Skipped bool
}

// RunDiagnosis drains the diagnosis queue, testing every suspect interface
// against up to three partner interfaces reached through the circuit-switch
// side-port rings (Section 4.2, Figure 4). A suspect with connectivity in at
// least one configuration is redressed as healthy and its switch released
// back to the backup pool; otherwise the switch stays offline for repair.
//
// Diagnosis only involves switches already taken offline and backup switches
// not in use, so it never touches the live network. If neither side of a
// failed link can offer a healthy partner interface, both suspects are
// considered faulty (the paper's conservative rule).
func (c *Controller) RunDiagnosis() ([]DiagnosisResult, error) {
	var results []DiagnosisResult
	for _, item := range c.pendingDiagnosis {
		for _, suspect := range []EndPoint{item.A, item.B} {
			res, err := c.diagnoseInterface(suspect)
			if err != nil {
				return results, err
			}
			results = append(results, res)
		}
	}
	c.pendingDiagnosis = nil
	return results, nil
}

// diagnoseInterface probes one suspect interface against up to three
// partners.
func (c *Controller) diagnoseInterface(suspect EndPoint) (DiagnosisResult, error) {
	sw := c.net.Switch(suspect.Switch)
	if sw.Role != sbnet.RoleOffline {
		// Still active (its group had no spare backup at report time)
		// or already cleared by an earlier diagnosis item or repair:
		// nothing to probe offline.
		return DiagnosisResult{Suspect: suspect, Skipped: true}, nil
	}
	res := DiagnosisResult{Suspect: suspect}
	for _, partner := range c.partnerInterfaces(suspect) {
		if len(res.Partners) == 3 {
			break
		}
		res.Partners = append(res.Partners, partner)
		// Each probe configuration costs two circuit reconfigurations
		// (set up the test circuit through the side-port ring, then
		// restore).
		c.diagnosisReconfigs += 2
		if c.net.InterfaceUp(suspect.Switch, suspect.Port) && c.net.InterfaceUp(partner.Switch, partner.Port) {
			res.Healthy = true
			break
		}
	}
	if res.Healthy {
		// Exoneration reverts the failover: the suspect rejoins its
		// group's backup pool — the Table 2 "revert" phase.
		if err := c.net.Release(suspect.Switch); err != nil {
			return res, err
		}
		res.Exonerated = true
	}
	return res, nil
}

// partnerInterfaces enumerates candidate partner interfaces for a suspect:
// first the suspect switch's own other interfaces (configurations that loop
// back through the side-port ring to the same switch, like A_{1,0} in
// Figure 4), then interfaces on free backup switches of the same failure
// group (like A_{3,0} in Figure 4).
func (c *Controller) partnerInterfaces(suspect EndPoint) []EndPoint {
	var out []EndPoint
	sw := c.net.Switch(suspect.Switch)
	for p := range sw.PortHealthy {
		if p != suspect.Port {
			out = append(out, EndPoint{Switch: suspect.Switch, Port: p})
		}
	}
	for _, id := range c.net.FreeBackups(sw.Group) {
		bsw := c.net.Switch(id)
		for p := range bsw.PortHealthy {
			out = append(out, EndPoint{Switch: id, Port: p})
		}
	}
	return out
}

// RepairSwitch models the completion of a physical repair: the switch's
// faults are cleared and it joins the backup pool of its failure group. Per
// Section 4.2 the network does not switch back to the original assignment.
func (c *Controller) RepairSwitch(id sbnet.SwitchID) error {
	return c.net.Release(id)
}
