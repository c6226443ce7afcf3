let check_bracket ~flo ~fhi lo hi =
  if flo *. fhi > 0. then
    Search_error.raise_
      (Search_error.Invalid_input
         {
           where = "Root.brent";
           what =
             Printf.sprintf "f(%g)=%g and f(%g)=%g have the same sign" lo flo
               hi fhi;
         })

(* Classic Brent: maintain (a, b) with f(b) closest to zero, previous iterate
   c, and fall back to bisection whenever interpolation misbehaves. *)
let brent ?(tol = 1e-12) ?(max_iter = 200) ~f lo hi =
  let fa = f lo and fb = f hi in
  check_bracket ~flo:fa ~fhi:fb lo hi;
  if Float.equal fa 0. then lo
  else if Float.equal fb 0. then hi
  else begin
    let a = ref lo and b = ref hi and fa = ref fa and fb = ref fb in
    if Float.abs !fa < Float.abs !fb then begin
      let t = !a in
      a := !b;
      b := t;
      let t = !fa in
      fa := !fb;
      fb := t
    end;
    let c = ref !a and fc = ref !fa in
    let d = ref (!b -. !a) and mflag = ref true in
    let iter = ref 0 in
    let result = ref None in
    while !result = None && !iter < max_iter do
      incr iter;
      let scale = Float.max 1. (Float.abs !b) in
      if Float.equal !fb 0. || Float.abs (!b -. !a) <= tol *. scale then
        result := Some !b
      else begin
        let s =
          if (not (Float.equal !fa !fc)) && not (Float.equal !fb !fc) then
            (* inverse quadratic interpolation *)
            (!a *. !fb *. !fc /. ((!fa -. !fb) *. (!fa -. !fc)))
            +. (!b *. !fa *. !fc /. ((!fb -. !fa) *. (!fb -. !fc)))
            +. (!c *. !fa *. !fb /. ((!fc -. !fa) *. (!fc -. !fb)))
          else !b -. (!fb *. (!b -. !a) /. (!fb -. !fa))
        in
        let lo_lim = ((3. *. !a) +. !b) /. 4. in
        let between =
          if lo_lim < !b then s >= lo_lim && s <= !b
          else s >= !b && s <= lo_lim
        in
        let use_bisect =
          (not between)
          || (!mflag && Float.abs (s -. !b) >= Float.abs (!b -. !c) /. 2.)
          || ((not !mflag) && Float.abs (s -. !b) >= Float.abs (!c -. !d) /. 2.)
          || (!mflag && Float.abs (!b -. !c) < tol *. scale)
          || ((not !mflag) && Float.abs (!c -. !d) < tol *. scale)
        in
        let s = if use_bisect then 0.5 *. (!a +. !b) else s in
        mflag := use_bisect;
        let fs = f s in
        d := !c;
        c := !b;
        fc := !fb;
        if !fa *. fs < 0. then begin
          b := s;
          fb := fs
        end
        else begin
          a := s;
          fa := fs
        end;
        if Float.abs !fa < Float.abs !fb then begin
          let t = !a in
          a := !b;
          b := t;
          let t = !fa in
          fa := !fb;
          fb := t
        end
      end
    done;
    match !result with Some x -> x | None -> !b
  end
