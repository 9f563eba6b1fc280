/**
 * @file
 * Include path for FleetTestbed, FleetConfig and runFleetExperiment,
 * which are declared in harness/experiment.hh next to the single-machine
 * Testbed, one of the testbed's two layouts:
 *
 * - B >= 1 balancers: clients reach N server machines through the
 *   balancer VIPs, full NAT and per-machine rack links.
 * - B = 0 (legal only with N = 1, the fleet of one): the machine's
 *   NetPort sits on a flat kWireDelay fabric, and the clients and the
 *   fault injector aim at the machine's own addresses and service port.
 *
 * The balancer tier itself (L4Balancer, HealthScorer) lives in
 * fleet/balancer.hh and fleet/health.hh, a library below the harness.
 */

#ifndef FSIM_FLEET_FLEET_HH
#define FSIM_FLEET_FLEET_HH

#include "harness/experiment.hh"

#endif // FSIM_FLEET_FLEET_HH
