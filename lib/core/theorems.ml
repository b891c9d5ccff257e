open Numerics

type check = { name : string; passed : bool; detail : string }

let pp_check fmt c =
  Format.fprintf fmt "[%s] %s: %s" (if c.passed then "ok" else "FAIL") c.name c.detail

let all_passed checks = List.for_all (fun c -> c.passed) checks

let close ?(rtol = 1e-4) ?(atol = 1e-7) a b =
  Float.abs (a -. b) <= atol +. (rtol *. Float.max (Float.abs a) (Float.abs b))

let mk name passed fmt = Printf.ksprintf (fun detail -> { name; passed; detail }) fmt

(* ------------------------------------------------------------------ *)
(* Section 3                                                           *)

let lemma1_uniqueness sys ~charges =
  let phi_a = System.equilibrium_phi ~phi_guess:1e-3 sys ~charges in
  let phi_b = System.equilibrium_phi ~phi_guess:50. sys ~charges in
  let grid = Grid.linspace 1e-6 (Float.max 2. (2. *. phi_a)) 64 in
  let monotone = ref true in
  Array.iteri
    (fun k phi ->
      if k > 0 && System.gap sys ~charges phi <= System.gap sys ~charges grid.(k - 1) then
        monotone := false)
    grid;
  mk "lemma1.uniqueness"
    (close ~rtol:1e-9 phi_a phi_b && !monotone)
    "phi(guess=1e-3)=%.12g phi(guess=50)=%.12g gap-monotone=%b" phi_a phi_b !monotone

let lemma2_invariance sys ~charges ~cp ~kappa =
  let phi_before = System.equilibrium_phi sys ~charges in
  let cps = Array.copy sys.System.cps in
  cps.(cp) <- Econ.Cp.scale cps.(cp) ~kappa;
  let scaled = System.make ~utilization:sys.System.utilization ~cps ~capacity:sys.System.capacity () in
  let phi_after = System.equilibrium_phi scaled ~charges in
  mk "lemma2.invariance"
    (close ~rtol:1e-9 phi_before phi_after)
    "kappa=%g phi=%.12g -> %.12g" kappa phi_before phi_after

let theorem1 sys ~charges =
  let st = System.solve sys ~charges in
  let h_mu = 1e-6 *. sys.System.capacity in
  let phi_of_mu mu = System.equilibrium_phi (System.with_capacity sys mu) ~charges in
  let dphi_dmu_num =
    (phi_of_mu (sys.System.capacity +. h_mu) -. phi_of_mu (sys.System.capacity -. h_mu))
    /. (2. *. h_mu)
  in
  let dphi_dmu = System.dphi_dcapacity sys st in
  let capacity_check =
    mk "theorem1.capacity" (dphi_dmu < 0. && close dphi_dmu dphi_dmu_num)
      "dphi/dmu analytic=%g numeric=%g" dphi_dmu dphi_dmu_num
  in
  let n = System.n_cps sys in
  let phi_of_populations populations =
    (System.solve_fixed_populations sys ~populations).System.phi
  in
  let population_checks =
    List.init n (fun i ->
        let h = 1e-6 *. (1. +. st.System.populations.(i)) in
        let bump delta =
          let m = Vec.copy st.System.populations in
          m.(i) <- m.(i) +. delta;
          phi_of_populations m
        in
        let numeric = (bump h -. bump (-.h)) /. (2. *. h) in
        let analytic = System.dphi_dpopulation sys st i in
        mk (Printf.sprintf "theorem1.population.%d" i)
          (analytic > 0. && close analytic numeric)
          "dphi/dm_%d analytic=%g numeric=%g" i analytic numeric)
  in
  let cross_checks =
    if n < 2 then []
    else begin
      let own = System.dthroughput_dpopulation sys st ~cp:0 ~wrt:0 in
      let cross = System.dthroughput_dpopulation sys st ~cp:1 ~wrt:0 in
      let dth_dmu = System.dthroughput_dcapacity sys st 0 in
      [
        mk "theorem1.throughput-signs"
          (own > 0. && cross < 0. && dth_dmu > 0.)
          "dtheta0/dm0=%g dtheta1/dm0=%g dtheta0/dmu=%g" own cross dth_dmu;
      ]
    end
  in
  (capacity_check :: population_checks) @ cross_checks

let theorem2 sys ~price =
  let st = One_sided.state sys ~price in
  let h = 1e-6 *. (1. +. price) in
  let phi_at p = (One_sided.state sys ~price:p).System.phi in
  let theta_at p = (One_sided.state sys ~price:p).System.aggregate in
  let dphi_num = (phi_at (price +. h) -. phi_at (price -. h)) /. (2. *. h) in
  let dphi = One_sided.dphi_dprice sys st in
  let dtheta_num = (theta_at (price +. h) -. theta_at (price -. h)) /. (2. *. h) in
  let dtheta = One_sided.daggregate_dprice sys st in
  let condition_checks =
    List.init (System.n_cps sys) (fun i ->
        let th_at p = (One_sided.state sys ~price:p).System.throughputs.(i) in
        let numeric = (th_at (price +. h) -. th_at (price -. h)) /. (2. *. h) in
        let margin = One_sided.condition7_margin sys st i in
        (* the margin and the derivative must agree in sign (allowing a
           small dead zone around zero) *)
        let agree =
          Float.abs numeric <= 1e-6
          || Float.abs margin <= 1e-9
          || (margin > 0.) = (numeric > 0.)
        in
        mk
          (Printf.sprintf "theorem2.condition7.%d" i)
          agree "margin=%g dtheta_%d/dp=%g" margin i numeric)
  in
  mk "theorem2.phi-slope" (dphi <= 0. && close dphi dphi_num)
    "dphi/dp analytic=%g numeric=%g" dphi dphi_num
  :: mk "theorem2.aggregate-slope" (dtheta <= 0. && close dtheta dtheta_num)
       "dtheta/dp analytic=%g numeric=%g" dtheta dtheta_num
  :: condition_checks

(* ------------------------------------------------------------------ *)
(* Section 4                                                           *)

let lemma3 game ~subsidies ~cp ~delta =
  if delta <= 0. then invalid_arg "Theorems.lemma3: delta must be positive";
  let st = Subsidy_game.state game ~subsidies in
  let bumped = Vec.copy subsidies in
  bumped.(cp) <- bumped.(cp) +. delta;
  let st' = Subsidy_game.state game ~subsidies:bumped in
  let tol = 1e-12 in
  let phi_up = st'.System.phi >= st.System.phi -. tol in
  let own_up = st'.System.throughputs.(cp) >= st.System.throughputs.(cp) -. tol in
  let others_down = ref true in
  Array.iteri
    (fun j th ->
      if j <> cp && st'.System.throughputs.(j) > th +. tol then others_down := false)
    st.System.throughputs;
  [
    mk "lemma3.phi" phi_up "phi %g -> %g" st.System.phi st'.System.phi;
    mk "lemma3.own-throughput" own_up "theta_%d %g -> %g" cp
      st.System.throughputs.(cp) st'.System.throughputs.(cp);
    mk "lemma3.others-throughput" !others_down "all others weakly down";
  ]

let theorem3 game (eq : Nash.equilibrium) =
  let kkt = Nash.kkt_residual game ~subsidies:eq.Nash.subsidies in
  let tau = Nash.threshold_consistency game ~subsidies:eq.Nash.subsidies in
  [
    mk "theorem3.kkt" (kkt <= 1e-5) "KKT residual=%g" kkt;
    mk "theorem3.threshold" (tau <= 1e-4) "max |s_i - min(tau_i, q)| = %g" tau;
  ]

let theorem4 rng game =
  let spread = Nash.multistart_spread ~starts:5 rng game in
  mk "theorem4.uniqueness" (spread <= 1e-6) "multistart spread=%g" spread

let with_value sys ~cp ~value =
  let cps = Array.copy sys.System.cps in
  cps.(cp) <- { cps.(cp) with Econ.Cp.value };
  System.make ~utilization:sys.System.utilization ~cps ~capacity:sys.System.capacity ()

let theorem5 game ~cp ~delta =
  if delta <= 0. then invalid_arg "Theorems.theorem5: delta must be positive";
  let sys = Subsidy_game.system game in
  let base = Nash.solve game in
  let bumped_sys = with_value sys ~cp ~value:(sys.System.cps.(cp).Econ.Cp.value +. delta) in
  let bumped_game =
    Subsidy_game.make bumped_sys ~price:(Subsidy_game.price game) ~cap:(Subsidy_game.cap game)
  in
  let bumped = Nash.solve bumped_game in
  let s0 = base.Nash.subsidies.(cp) and s1 = bumped.Nash.subsidies.(cp) in
  mk "theorem5.profitability" (s1 >= s0 -. 1e-7) "v+%g: s_%d %g -> %g" delta cp s0 s1

let resolve_at game ~price ~cap ~x0 =
  let sys = Subsidy_game.system game in
  let g = Subsidy_game.make sys ~price ~cap in
  (Nash.solve ~x0:(Vec.clamp ~lo:0. ~hi:cap x0) g).Nash.subsidies

let theorem6 game (eq : Nash.equilibrium) =
  let s = eq.Nash.subsidies in
  let p = Subsidy_game.price game and q = Subsidy_game.cap game in
  let part = Sensitivity.partition game ~subsidies:s in
  let h = 1e-4 in
  let dq_formula = Sensitivity.ds_dq game ~subsidies:s in
  let dq_numeric =
    let plus = resolve_at game ~price:p ~cap:(q +. h) ~x0:s in
    let minus = resolve_at game ~price:p ~cap:(Float.max 0. (q -. h)) ~x0:s in
    Vec.scale (1. /. (2. *. h)) (Vec.sub plus minus)
  in
  let dp_formula = Sensitivity.ds_dp game ~subsidies:s in
  let dp_numeric =
    let plus = resolve_at game ~price:(p +. h) ~cap:q ~x0:s in
    let minus = resolve_at game ~price:(Float.max 0. (p -. h)) ~cap:q ~x0:s in
    Vec.scale (1. /. (2. *. h)) (Vec.sub plus minus)
  in
  let compare_on name formula numeric =
    (* compare only where the classification is stable: corner CPs can
       enter the interior under the perturbation, so allow slack there *)
    let worst = ref 0. in
    Array.iter
      (fun i -> worst := Float.max !worst (Float.abs (formula.(i) -. numeric.(i))))
      part.Sensitivity.interior;
    mk name (!worst <= 5e-2) "max interior |formula - numeric| = %g" !worst
  in
  [
    compare_on "theorem6.ds_dq" dq_formula dq_numeric;
    compare_on "theorem6.ds_dp" dp_formula dp_numeric;
    mk "theorem6.corners-dq"
      (Array.for_all
         (fun i -> Float.abs dq_formula.(i) <= 1e-12)
         part.Sensitivity.lower
      && Array.for_all
           (fun i -> Float.abs (dq_formula.(i) -. 1.) <= 1e-12)
           part.Sensitivity.upper)
      "N- stays 0, N+ tracks q";
  ]

(* ------------------------------------------------------------------ *)
(* Section 5                                                           *)

let theorem7 game (eq : Nash.equilibrium) =
  let formula = Revenue.marginal_formula game ~subsidies:eq.Nash.subsidies in
  let numeric = Revenue.marginal_numeric game in
  mk "theorem7.marginal-revenue"
    (close ~rtol:5e-2 ~atol:1e-3 formula numeric)
    "dR/dp formula=%g numeric=%g" formula numeric

let corollary1 sys ~price ~caps =
  let ladder = Policy.deregulation_ladder sys ~price ~caps in
  let tol = 1e-7 in
  let monotone extract =
    let ok = ref true in
    Array.iteri
      (fun k point ->
        if k > 0 && extract point < extract ladder.(k - 1) -. tol then ok := false)
      ladder;
    !ok
  in
  let subsidies_monotone =
    let ok = ref true in
    Array.iteri
      (fun k (point : Policy.point) ->
        if k > 0 then begin
          let prev = ladder.(k - 1).Policy.equilibrium.Nash.subsidies in
          let cur = point.Policy.equilibrium.Nash.subsidies in
          Array.iteri (fun i si -> if si < prev.(i) -. 1e-6 then ok := false) cur
        end)
      ladder;
    !ok
  in
  [
    mk "corollary1.phi" (monotone (fun pt -> pt.Policy.utilization)) "phi nondecreasing in q";
    mk "corollary1.revenue" (monotone (fun pt -> pt.Policy.revenue)) "R nondecreasing in q";
    mk "corollary1.subsidies" subsidies_monotone "every s_i nondecreasing in q";
  ]

let corollary2 game (eq : Nash.equilibrium) =
  let s = eq.Nash.subsidies in
  let p = Subsidy_game.price game and q = Subsidy_game.cap game in
  let result = Welfare.corollary2 game ~subsidies:s in
  let h = 1e-4 in
  let welfare_at cap =
    let sys = Subsidy_game.system game in
    let g = Subsidy_game.make sys ~price:p ~cap in
    let e = Nash.solve ~x0:(Vec.clamp ~lo:0. ~hi:cap s) g in
    Welfare.of_equilibrium g e
  in
  let dw_numeric = (welfare_at (q +. h) -. welfare_at (Float.max 0. (q -. h))) /. (2. *. h) in
  let prediction_applies = result.Welfare.dphi_dq > 1e-9 && not (Float.is_nan result.Welfare.lhs) in
  let agree =
    (not prediction_applies)
    || Float.abs dw_numeric <= 1e-5
    || result.Welfare.predicted_welfare_increase = (dw_numeric > 0.)
  in
  mk "corollary2.welfare-sign" agree "lhs=%g rhs=%g dW/dq numeric=%g (applies=%b)"
    result.Welfare.lhs result.Welfare.rhs dw_numeric prediction_applies

let theorem8 sys ~price ~cap ~dp_dq =
  let game = Subsidy_game.make sys ~price ~cap in
  let eq = Nash.solve game in
  let s = eq.Nash.subsidies in
  let effect = Sensitivity.policy_effect ~dp_dq game ~subsidies:s in
  let h = 1e-4 in
  let state_at dq =
    let cap' = cap +. dq in
    let price' = Float.max 0. (price +. (dp_dq *. dq)) in
    let g = Subsidy_game.make sys ~price:price' ~cap:cap' in
    (Nash.solve ~x0:(Vec.clamp ~lo:0. ~hi:cap' s) g).Nash.state
  in
  let st_plus = state_at h and st_minus = state_at (-.h) in
  let dphi_numeric = (st_plus.System.phi -. st_minus.System.phi) /. (2. *. h) in
  let n = System.n_cps sys in
  let dm_ok = ref true in
  let dm_detail = Buffer.create 64 in
  for i = 0 to n - 1 do
    let numeric =
      (st_plus.System.populations.(i) -. st_minus.System.populations.(i)) /. (2. *. h)
    in
    if not (close ~rtol:5e-2 ~atol:1e-3 effect.Sensitivity.dpopulation_dq.(i) numeric)
    then begin
      dm_ok := false;
      Buffer.add_string dm_detail
        (Printf.sprintf " m%d: formula=%g numeric=%g" i
           effect.Sensitivity.dpopulation_dq.(i) numeric)
    end
  done;
  [
    mk "theorem8.dphi_dq"
      (close ~rtol:5e-2 ~atol:1e-4 effect.Sensitivity.dphi_dq dphi_numeric)
      "formula=%g numeric=%g" effect.Sensitivity.dphi_dq dphi_numeric;
    mk "theorem8.dm_dq" !dm_ok "population derivatives%s"
      (if !dm_ok then " all match" else Buffer.contents dm_detail);
  ]

(* ------------------------------------------------------------------ *)

let run_paper_suite ?(seed = 20140610L) () =
  let rng = Rng.create seed in
  let sys3 = Scenario.fig45_system () in
  let charges = Vec.make (System.n_cps sys3) 0.4 in
  let section3 =
    [ lemma1_uniqueness sys3 ~charges; lemma2_invariance sys3 ~charges ~cp:2 ~kappa:3. ]
    @ theorem1 sys3 ~charges
    @ theorem2 sys3 ~price:0.5
  in
  let sys5 = Scenario.fig7_11_system () in
  let game = Subsidy_game.make sys5 ~price:0.8 ~cap:1.0 in
  let eq = Nash.solve game in
  let section4 =
    lemma3 game ~subsidies:(Vec.make (System.n_cps sys5) 0.2) ~cp:0 ~delta:0.05
    @ theorem3 game eq
    @ [ theorem4 rng game; theorem5 game ~cp:0 ~delta:0.2 ]
    @ theorem6 game eq
  in
  (* a tighter cap pins several CPs at q, making N+ non-empty so the
     policy derivatives are non-trivial *)
  let tight_game = Subsidy_game.make sys5 ~price:0.8 ~cap:0.4 in
  let tight_eq = Nash.solve tight_game in
  let section5 =
    [ theorem7 game eq ]
    @ corollary1 sys5 ~price:0.8 ~caps:[| 0.; 0.25; 0.5; 0.75; 1.0 |]
    @ [ corollary2 game eq; corollary2 tight_game tight_eq ]
    @ theorem8 sys5 ~price:0.8 ~cap:1.0 ~dp_dq:0.1
    @ theorem8 sys5 ~price:0.8 ~cap:0.4 ~dp_dq:0.
    @ theorem6 tight_game tight_eq
  in
  section3 @ section4 @ section5
