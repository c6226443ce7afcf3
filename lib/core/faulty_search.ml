(** Parallel search on the line and on [m] rays with faulty robots.

    An OCaml reproduction of Kupavskii and Welzl, {e Lower Bounds for
    Searching Robots, some Faulty} (PODC 2018; arXiv:1707.05077).

    Quick tour:
    {[
      let problem = Faulty_search.Problem.line ~k:3 ~f:1 () in
      let solution = Faulty_search.Solve.solve problem in
      let report = Faulty_search.Verify.verify solution in
      Format.printf "%a@." Faulty_search.Verify.pp report
    ]}

    The high-level modules below are defined in this library; the
    substrate namespaces re-export the full stack for power users. *)

(** {1 High-level API} *)

module Problem = Problem
module Solve = Solve
module Verify = Verify
module Report = Report

(** {1 Closed-form bounds (Theorems 1 and 6, eq. 11)} *)

module Params = Search_bounds.Params
module Formulas = Search_bounds.Formulas
module Lemma = Search_bounds.Lemma
module Byzantine = Search_bounds.Byzantine
module Asymptotics = Search_bounds.Asymptotics
module Planning = Search_bounds.Planning

(** {1 Strategies} *)

module Turning = Search_strategy.Turning
module Line_zigzag = Search_strategy.Line_zigzag
module Orc_round = Search_strategy.Orc_round
module Normalize = Search_strategy.Normalize
module Mray_exponential = Search_strategy.Mray_exponential
module Cyclic = Search_strategy.Cyclic
module Baseline = Search_strategy.Baseline
module Group = Search_strategy.Group
module Randomized = Search_strategy.Randomized

(** {1 Simulation} *)

module World = Search_sim.World
module Itinerary = Search_sim.Itinerary
module Trajectory = Search_sim.Trajectory
module Fault = Search_sim.Fault
module Engine = Search_sim.Engine
module Adversary = Search_sim.Adversary
module Exact_adversary = Search_sim.Exact_adversary
module Competitive = Search_sim.Competitive
module Byzantine_sim = Search_sim.Byzantine_sim
module Event_log = Search_sim.Event_log
module Svg_render = Search_sim.Svg_render

(** {1 Cost-model variants (related work the paper builds on)} *)

module Work_schedule = Search_sim.Work_schedule
module Turn_cost = Search_sim.Turn_cost
module Stochastic = Search_sim.Stochastic

(** {1 Covering relaxations and the lower-bound machinery} *)

module Symmetric_cover = Search_covering.Symmetric
module Orc_cover = Search_covering.Orc
module Assigned = Search_covering.Assigned
module Potential = Search_covering.Potential
module Certificate = Search_covering.Certificate
module Certificate_io = Search_covering.Certificate_io
module Fractional = Search_covering.Fractional
module Induction = Search_covering.Induction
module Frontier = Search_covering.Frontier

(** {1 Property-based checking (fuzzing harness)} *)

module Check = Search_check
(** Submodules: [Check.Case], [Check.Gen], [Check.Invariant],
    [Check.Shrink], [Check.Corpus], [Check.Fuzz]. *)

(** {1 Parallel execution (domain pool, deterministic sharding)} *)

module Pool = Search_exec.Pool
module Par = Search_exec.Par
module Shard = Search_exec.Shard
module Memo = Search_exec.Memo
module Metrics = Search_exec.Metrics

(** {1 Resilience (supervised execution runtime)} *)

module Search_error = Search_numerics.Search_error
module Budget = Search_resilience.Budget
module Retry = Search_resilience.Retry
module Chaos = Search_resilience.Chaos
module Journal = Search_resilience.Journal
module Lockfile = Search_resilience.Lockfile
module Supervise = Search_exec.Supervise

(** {1 Numerics} *)

module Interval1 = Search_numerics.Interval1
module Sweep = Search_numerics.Sweep
module Rational = Search_numerics.Rational
module Table = Search_numerics.Table
module Prng = Search_numerics.Prng
module Csv_out = Search_numerics.Csv_out
module Json = Search_numerics.Json
module Stats = Search_numerics.Stats
