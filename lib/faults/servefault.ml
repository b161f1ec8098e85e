type kind =
  | Slow_job
  | Transient_io
  | Always_transient
  | Cache_corrupt
  | Burst

type expectation = Expect_absorbed | Expect_degraded | Expect_detected

type spec = { sf_name : string; sf_kind : kind; sf_expect : expectation }

let catalog =
  [
    { sf_name = "slow-job"; sf_kind = Slow_job; sf_expect = Expect_detected };
    {
      sf_name = "transient-io";
      sf_kind = Transient_io;
      sf_expect = Expect_absorbed;
    };
    {
      sf_name = "stale-degrade";
      sf_kind = Always_transient;
      sf_expect = Expect_degraded;
    };
    {
      sf_name = "cache-corrupt";
      sf_kind = Cache_corrupt;
      sf_expect = Expect_absorbed;
    };
    { sf_name = "burst"; sf_kind = Burst; sf_expect = Expect_detected };
  ]

let find name = List.find_opt (fun s -> String.equal s.sf_name name) catalog

let expectation_name = function
  | Expect_absorbed -> "absorbable"
  | Expect_degraded -> "degradable"
  | Expect_detected -> "detectable"
