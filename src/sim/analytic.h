// Closed-form queueing oracles for differential verification of the
// discrete-event simulator.
//
// A Clover deployment of c identical instances fed by one FIFO queue and a
// Poisson arrival stream is exactly an M/M/c queue whenever service times
// are exponential (SimOptions::service_model = kExponential). These
// functions give the textbook steady-state answers — Erlang-C wait
// probability, mean wait/sojourn time, utilization, queue-length
// distribution — so tests, benches and the CLI can ask "what should this
// configuration do in steady state" and compare the simulator against an
// independent ground truth (tests/sim_differential_test.cc sweeps a
// (c, rho) grid and is the permanent regression gate).
//
// An M/M/c/K variant covers bounded queues (blocking probability, carried
// load). The simulator's queue is unbounded, so the bounded-queue oracle is
// verified by internal identities (conservation, Erlang-B at K = c,
// convergence to M/M/c as K grows) rather than differentially.
//
// Numerical notes: Erlang B is computed with the standard stable recurrence
// (no factorials), Erlang C from Erlang B; the queue-length pmf is built
// from iteratively scaled terms. Everything here is exact up to double
// rounding for the c <= 128 fleet sizes the simulator supports.
#pragma once

#include <vector>

namespace clover::sim::analytic {

// Steady-state description of an M/M/c configuration.
struct MmcConfig {
  double arrival_rate = 0.0;  // lambda, requests/second (Poisson)
  double service_rate = 0.0;  // mu, requests/second per server (exponential)
  int servers = 1;            // c
};

struct MmcMetrics {
  double utilization = 0.0;       // rho = lambda / (c mu)
  double offered_load = 0.0;      // a = lambda / mu (Erlangs)
  double wait_probability = 0.0;  // Erlang-C: P(arrival waits)
  double mean_wait_s = 0.0;       // Wq, time in queue
  double mean_sojourn_s = 0.0;    // W = Wq + 1/mu
  double mean_queue_length = 0.0;  // Lq = lambda Wq
  double mean_in_system = 0.0;     // L = lambda W
};

// Erlang-B blocking probability for `servers` lines offered `offered_load`
// Erlangs. Stable recurrence; requires servers >= 1, offered_load >= 0.
double ErlangB(int servers, double offered_load);

// Erlang-C probability that an arrival has to wait (M/M/c, infinite queue).
// Requires offered_load < servers (stable queue).
double ErlangC(int servers, double offered_load);

// Full steady-state metrics. Requires a stable queue (rho < 1).
MmcMetrics AnalyzeMmc(const MmcConfig& config);

// P(N = n) for n = 0..max_n, N = customers in system (waiting + in
// service). The tail beyond max_n is geometric with ratio rho.
std::vector<double> MmcQueueLengthPmf(const MmcConfig& config, int max_n);

// Quantile of the waiting-time distribution: smallest t with
// P(Wq <= t) >= q. For M/M/c FIFO, P(Wq > t) = C(c,a) e^{-(c mu - lambda)t},
// so quantiles below 1 - C are 0 (served immediately).
double MmcWaitQuantile(const MmcConfig& config, double q);
// The same quantile from `metrics` = AnalyzeMmc(config), for callers that
// already hold them (no second Erlang-C evaluation).
double MmcWaitQuantile(const MmcConfig& config, const MmcMetrics& metrics,
                       double q);

// Quantile of the sojourn time T = Wq + S (wait plus exponential service).
// The CCDF is the closed-form convolution of the Erlang-C wait with an
// Exp(mu) service time; the quantile is found by bisection on that CCDF.
// Shared ground truth for the surrogate screen (opt/surrogate.h) and the
// mean-field fidelity tier (sim/meanfield.h), so both tiers quote the same
// p95 for the same aggregate M/M/c and differ only in their dynamics.
double MmcSojournQuantile(const MmcConfig& config, double q);
// The same quantile from `metrics` = AnalyzeMmc(config).
double MmcSojournQuantile(const MmcConfig& config, const MmcMetrics& metrics,
                          double q);

// ---------------------------------------------------------------------------
// M/M/c/K: at most `capacity` customers in the system (c in service,
// capacity - c waiting); arrivals finding the system full are lost.
// ---------------------------------------------------------------------------
struct MmcKMetrics {
  double blocking_probability = 0.0;  // P(N = K), the loss fraction
  double carried_rate = 0.0;          // lambda (1 - P_block), admitted qps
  double utilization = 0.0;           // carried_rate / (c mu)
  double mean_wait_s = 0.0;           // Wq of admitted customers
  double mean_sojourn_s = 0.0;        // W = Wq + 1/mu
  double mean_queue_length = 0.0;     // Lq
  double mean_in_system = 0.0;        // L
};

// Requires capacity >= servers. Defined for any offered load (a bounded
// system is always stable).
MmcKMetrics AnalyzeMmcK(const MmcConfig& config, int capacity);

// P(N = n) for n = 0..capacity; sums to 1.
std::vector<double> MmcKQueueLengthPmf(const MmcConfig& config, int capacity);

}  // namespace clover::sim::analytic
