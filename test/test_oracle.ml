(* Validator-as-oracle regression tests.

   Every scheduler is run over a bank of random TGFF graphs; for each run
   we assert (a) structural feasibility — the independent validator finds
   no violation besides deadline misses, which the baselines are allowed
   to incur — and (b) energy and miss-count invariance against a golden
   table recorded from the reference implementation. Energy depends only
   on the task-to-PE assignment (Eq. 3), so any silent behaviour change in
   the schedule-table substrate that shifts a placement decision flips a
   golden value by a whole reassignment and fails loudly here. Energy says
   nothing about timing, so (c) every schedule is also pinned in full by
   the digest of its [Schedule_io] text, and EDF is pinned once more under
   the [Fixed_delay] communication model of the ablation.

   Regenerate the table with:
     ORACLE_REGEN=1 dune exec test/test_main.exe -- test oracle 2>/dev/null *)

module Validate = Noc_sched.Validate
module Metrics = Noc_sched.Metrics

let platform = Noc_noc.Platform.heterogeneous_mesh ~seed:3 ~cols:3 ~rows:3 ()

let params =
  { Noc_tgff.Params.default with n_tasks = 24; max_layer_width = 5 }

let n_seeds = 50

let schedulers =
  [
    ("EAS", fun ctg -> (Noc_eas.Eas.schedule platform ctg).Noc_eas.Eas.schedule);
    ("EDF", fun ctg -> Noc_edf.Edf.schedule platform ctg);
    ("DLS", fun ctg ->
      Noc_baselines.Dls.schedule platform ctg);
    ("energy-greedy", fun ctg ->
      Noc_baselines.Energy_greedy.schedule platform ctg);
  ]

(* Pinned by digest only: fixed-delay schedules may overlap on links, so
   the structural check does not apply to them. *)
let edf_fixed_delay ctg =
  Noc_edf.Edf.schedule ~comm_model:Noc_sched.Comm_sched.Fixed_delay platform ctg

let ctg_of_seed seed = Noc_tgff.Generate.generate ~params ~platform ~seed

let digest schedule =
  Digest.to_hex (Digest.string (Noc_sched.Schedule_io.to_string schedule))

let run_one scheduler ctg =
  let schedule = scheduler ctg in
  let metrics = Metrics.compute platform ctg schedule in
  let structural =
    List.filter
      (function Validate.Deadline_miss _ -> false | _ -> true)
      (Validate.check platform ctg schedule)
  in
  (metrics.Metrics.total_energy, Metrics.miss_count metrics, structural, digest schedule)

(* One line per seed: seed, then (energy, misses, schedule digest) per
   scheduler in the order of [schedulers], then the digest of
   [edf_fixed_delay]. Energies and misses were recorded from the seed
   list-based Timeline and are required to survive every substrate swap
   since; the digests were recorded before the schedulers were moved
   onto one shared placement step. *)
let golden_table = {golden|
0 4859.0408 0 56e1ac40ba86cdee97f14d9949624bc7 7704.4429 0 164fa587c83911b69cdda562793521c4 7302.8296 0 f54ca97aca7fe389713d0e7da0292bc8 2834.8414 6 508212ebb74ff6fb7308d3fbf5b2b06b 8303fc958d8290704b29d411dc33d165
1 4396.6967 0 6b1510dedf40dab363081cb1868b32d2 5943.8451 0 71f30dd5771c4cddeaf82d04d792ac02 6214.5934 0 86798452f91c7a738508b8ef4ecbe8c1 1767.6972 6 66ca3f0b9a7425b78a7cfa05ad68dcbe 19eaa0db2bafa0fa6f227cefc2ed359b
2 4393.9249 0 492f5fb36278ea735e21686e2068fc89 5984.3301 0 03446e289151942b364ac89e6530005c 6117.8500 0 0a76423e85206de1c7dc13c5ab2d3204 2256.0292 7 f5129f1474d40338f613a3fa2b894c3c 6a61314eca50a1e0a643a00d951a924a
3 4749.0564 0 f2fec9bebe73d3a94d5cd9db28171949 5835.0638 0 0232b284fda9a395a26835a1f6f37d7a 6110.9848 0 317acf13a95dbac3a21745b27e725dde 3107.9713 5 68fcf5635424da9232f817bca980038f 0c1efab67b292acd0380445fbb779559
4 7178.8580 0 c4b7968eb2679db69ab6a24913d36ca9 9636.5582 0 15bda39acf42a5ca996efd1b90f86c64 9557.0821 0 a5f6a581412130886f70ecbf451fa771 4396.0994 6 6cbb34f13926447f33530785ed1b0d1a 02eb5d63202baaa7640393681ec3a939
5 4878.7381 0 def2bc5649f567ce7503ddfceb255e6e 6730.3408 0 67d89a5f8888b1829be65d8ab1974c9d 6848.6159 0 4b94e6e2f902919858913ea5fcb87fbf 3025.6941 5 fdd56245724db24690e08782be59ccc2 adbd9d691ed92291c6e96dd67ac3118b
6 3498.6835 0 d30563ecbead6a6c6c6280a97a55666e 5842.0516 0 d8818db5d4435e7f486e045cb64dd771 5713.8070 0 e9fdf78fe38b67e91db63896b31e1d77 2522.1699 7 79b9df3f1c6012a027ff86230b841c39 aac545249e0b05a498d5a3e87ab5fc92
7 7578.9670 0 af3891b6db7cd5fbb64bfcb67fc03526 11107.2635 0 ade6780f8d8b262bea32cc6f7924591b 10354.7569 0 6320b5884a0103675be8f5faad7f3839 3508.6372 5 ccfd152ce522797d3ab2bc3c3917adb0 d9b4a23910ce4169b30fd0df21bfdf87
8 3840.6774 0 2fb4e744b41e43e9f44623e39830fd45 5866.2560 0 92c21fe518df603a0c2aa06ffe36ff31 5383.6242 0 597aab29add73d5d513470ce588d4c2a 2759.3345 8 378986aa5d1054ed90b1bc4cd975ff4a 6df74086bab75938d30128c19f4b25b5
9 6845.8970 0 5066d0fc5a8b8d135dc22383efa2474e 9250.5087 0 0b70256e092ef477a0e1bade7f653d12 9265.5241 0 7ae6b32f3060ebb88dbb5e2ac071e2b6 3007.7259 5 d8d5b3c27968068d199ae4757264fece 6528f0b8f3df55d77ed7fa98c7668137
10 3695.6846 0 dd4cd61e2dd2ba044d662a5d3516321c 5225.6444 0 87f9672d6d731cbace4e897e7ac599d9 6046.8550 0 7acf2a132e2f253a6508d49ee443571f 2681.4234 5 b2bed27f340c6bcc2646c69c2a22361f a8009dca8ed8cd2611947e9f0fdba0be
11 5953.7306 0 4b6d9c7faeaf280ff2f652d20fd88da1 8139.3268 0 07a3ff74b33d7e05b655de392d54b7dc 7633.3911 0 8f52130ba58985d3baf6e4633e9bb153 4566.0650 6 2442eb5cb8ba521c1ec2ecbd16376693 23c3f06c33bc9b97c576c709b1cc45cb
12 4439.9349 0 8d6857eb5cff0b02f5c19879baf9ea65 5657.6992 0 aa63c361f505c450de5d62f8107f21b6 6098.8325 0 4d1c15e5614e8c716304f3d92d6b321d 3049.1614 6 4776c1893badb63f357b6c8f14972fe3 d829d11e469a47eca5dd6897e0305409
13 6819.6015 0 56f8fe7527bd390d5a7b17cc0ed02d0c 10359.6549 0 4204871f757ee220c3de93f3782d9d45 9642.3268 0 2d01d61285301464c92c26eec10e020d 3216.3208 4 840ecd5fc38b138c7e4d3eb4f9676e96 3027afb16837bc097b7bc000354c317c
14 4345.1504 0 d6b72619f2e0dd9c048fc1d6a672d3ae 5620.7564 0 793bbd24e67aac7990b40e5af88461df 5983.5588 0 0ce30a321a49a1dbaaa257dc16604e31 2465.2428 7 80f7fba6b52638c949d20e2f42781a6e 2d127cb905c68f4d17a6a37e166ac8a3
15 5762.9551 0 cf758d4bddd77f37aaa07c5af5a9a5eb 6959.3202 0 a4fcb79293ff2782931e228faa5d7dfe 6738.2666 0 eaef7dd32b7e31ecec72073ed4d0d989 2793.0089 5 6e8ea4a17d33254709dfbd635cb3468e 574c91305ad247147278f16709c81187
16 7430.3480 0 b97c59ec12c6fdb8ecc5fc7b4b13e0c5 10353.5188 0 c11bdeff2c8f5beb9f923e8ab149816e 11212.1261 0 ddf38669f34bb1e2245848501e61c99a 4205.5213 6 2a33d819df891c36e8ab0b4d8e998890 9e5bcd69f8e3381368d53d86587377a8
17 5661.2926 0 0adba9e109faf0a209f00c9f31fd0d23 7375.0677 0 081a4099b54b45f6654e3b7f20c19a0d 7480.0178 0 1d8a18a5bd1b0da43c95894bcf7da452 2655.7140 5 4d8551773a6e541815ef1f97521af252 85290797bcbb6b8d5933ffaf22136cd3
18 6384.7599 0 8b10817006ecbe13bbbfd3a182650b43 9044.5022 0 7d68de5d14780fab10a05f9d20cd3996 8534.2067 0 ac92d3ca332f2a4c113cf40706d67a69 2741.2562 5 981b8d30174b7256c882b1bd61308d2a 4c186abf25c1a47a7668e3e3cda513e7
19 6390.7906 0 f85a66ebf7967149a2ed28c352d13d12 7251.6533 0 e916fccc6dba4612b4d09dece4719882 7629.8820 0 8e8f677862fb66c977f30fe87cc0edd5 2779.4812 8 258110c36ebe29cfda6c7a2ab9cf1161 f95c5d9e999a8bc3e908547814908f1d
20 5810.2551 0 7e9c2adfec74ced145321dfdb18c2c32 8367.8139 0 833ae9e27783c4de060c8283144404db 8205.1525 0 0306b83770b93269aec4dfae7bbd6b1a 3666.6890 6 2e52a1f608baed05bbcf80646319d985 c37e11c69f9837f41195bbec215de29a
21 4740.0622 0 2db649a5fc2608652a067d798747f507 8574.2338 0 b60646b0c62374b24e6a8b61f74bb331 8642.4530 0 3b7a10c0963c84821440661a3dee461e 2805.7968 6 0a5d0112d34990030e550cc86de166f5 395035faf1a4271eded0b2e21bb78d32
22 5764.6172 0 d1ff9b635ed6ff16981136e33d6afe7c 7728.0957 0 58b6de4761a38ed9185a2b09bd747119 7455.4109 0 5d98361da57afcb83e61bf5fe7a47042 2085.1921 7 9f4f6ed989abcca438e9ffc3cd4d6d45 bdeff47217893a100257636ff49a8ecc
23 5181.8773 0 7283d5ead972bdfbcb4154056b71f132 7697.0906 0 ed8f919c6ea1aa42e7df9a27ea464d47 7278.2862 0 108e69a9bc5cc4e1e5906d445f600281 3119.2343 4 d6b84db1be2f36abcc4a145375f2f3e0 998c5fcc4e941e0177583925ac8de151
24 4502.4027 0 81bcdbe0fdb871f39bd7e8587c6be89c 6646.4937 0 b8e0a1a658a75e3f948b610e9a6b5d96 6818.4300 0 7540fd9c455bb045cb6a70bba996f489 2053.3015 6 287dde3ec56ff24e30cd113b6e34caf3 925d6d53bbae3ad0eac72d32f6ab25e9
25 5437.9496 0 c9c10b6efe2cb22fcdbb16352f5b5066 9041.2888 0 6a98fa79babe634ae994e283365d426f 8480.6479 0 eab30cfb7d45f2f1d71f78c23b588f4a 3777.4005 4 87a3c62ec2667bbd75fd27e5adb293e6 de14fd5cb275ff923758705aee828f37
26 5536.3227 0 f4571f28587e0db0ef0ad8811b672a10 8297.6115 0 6ff9139d07d9e0705a20432217a60d85 7446.2647 0 15861ab4a770a44a662a17698dee0778 3528.1273 5 e10919310d86a3bef24d5c5f2813d510 593b3baa95fd4ea2f917917348fc62c1
27 4705.5555 0 2b214e9bb489fcacce436d8f952f2712 5980.8815 0 a581dd6890036767425b4b9c1e68069b 5996.5879 1 ce630562be83d029dc55b2cb5ed1d832 2423.7090 6 2e147fc2802095fc42d11193c66ca7f6 21a8131cb07101d9c53710523b40c2f8
28 6043.1952 0 cdabfee3aef2c4817a21d06592b8cac7 8153.5052 0 a6201a1a20f06f1a10742f68d187f717 8015.0091 0 622e019b6307005da84e731bf69ff69b 3429.9646 7 e02069c77fbeb1cb19eaec2aba74eac8 f16bc8b393a6333a0759e3089d123725
29 4827.1665 0 c44510be423192ffdb0a7172cb17c534 5386.0743 0 065dc437e4bc86cda29d2b0a7c56f96d 6425.7493 0 13621fc448da33bdfd1d636628708467 2746.4160 6 0e99c72de4780d297623af7be02246e1 9e395c78660d64c88c4bc9333fa6850d
30 5770.2888 0 9bb078c86bf8656ebea24b973f678a5e 7833.8738 0 5325d9ba5c73076039313ec2b1fd57b8 8387.8886 0 f5424e90db7e9e3945db522b657e93fc 3646.8191 6 922a09d9e1348b94e036e4531731e9a1 bd724c7dabad86504681f7b0b295ff14
31 5696.5804 0 3bb635b1673b5a432851d134af73a9d3 7547.2954 0 54aa6b1f9b2eb149017c6e42460b9743 7267.9430 0 120a2f8440e6a88cd0bdad8a15d77b97 3318.4802 7 35a820c0be5ca7e2c014ce5404ebc922 78ca8bbe71ee966f0ca9ef282a4e8d51
32 5302.6647 0 97f5b17023e8c939b9325f071b079fb5 7503.7053 0 8222f447865c9320b8c99624d83cf09a 7357.0267 0 53f10f497163c41354be3373078af1de 3044.1693 7 7cc2b7ad1c95dbb9320593e3e3039248 390bd84dce22b000f0b1d8724e7a6c5c
33 4550.1256 0 d862c572484aa23331c308d1dda4dc36 7456.7978 0 ba6db12eb2faa950e56efda7c4746324 7105.5168 0 0deb38b913b09b3bcbc4c929868fbdb4 2743.7166 6 9f4d567acb98afa46092f9dfed169edb abab43b67075dbe25a02bdcd321d513c
34 6469.7225 0 28d9b01ba5691c6842cff1f7557a45c1 9299.7925 0 1293d9d1870e79c042b57f32dd9aed51 9720.1595 0 5bf612a917a76b940f42bf01a48856ff 3891.4786 4 461157efadf5b31d76e8307099d6fc62 6a2005e139dc1932c8e659b0f25e9c0b
35 4110.2572 0 fe125ce5c43d75369273e3b738115062 5542.4828 0 79313df9d8db31b0b9b1a50c8da8b6df 5903.0267 1 6e682e570b276349eb31239a1af94936 2711.6607 6 95b4e9197ef26a836d685f5506805d15 8f4f886ac5403d3bd430cb528b0ab5c1
36 5522.3338 1 0c1696f84d31de5585533f65c9a23765 7869.6263 0 aaebd5a4430da8bde4711d289b1a366c 9297.9572 0 ff40af1880e3b398ee942eda288f2ba9 3419.4693 7 9c950a72cc80946b63a709320c0a3135 057ebb7491288654102f85e51daee63b
37 5406.4968 0 f1cc626d5a7c1b974be6574034da1790 7042.9135 0 bd7b10209f210cd26511308e9677ff4c 6884.5403 0 9e0586e5da4f0cf7f10fd6690e6ff3ee 3440.1195 6 86eec66ccbd7a33a833a683f9fe50844 048e13d61cdb93c99faf93e5c494cb94
38 4182.8216 0 d831497b4849a0a0be1c4af48d5fc92f 6169.5906 0 24e621473910cd2c330141e7b993c5f9 5957.6328 0 b32f34e1e67c18245edfc927da86bfc5 2522.2290 7 23010c27203910092261b7304dcfb48b 2c629c7b01f5438788254c938d8f61bd
39 6198.0738 0 3ab732a942b93f76b7142ee477ed927a 8072.2725 0 75d9117c4ee7881265aa6a3f21799bd9 8366.3267 0 156a6a3c0e293d178f20b3e0a6cb1e76 3926.7934 6 5c216a31cf218d85cd51181c727cb7e7 cf88ac96208946116658c2c0d4d1d723
40 5429.5073 0 d44ea90d9fb0beda1de4624baba6028d 8286.6308 0 8697bd62e9fc817cb454181c2f3b54cb 8305.7011 0 10a443afbeea2e98f2dd679a961cfd20 3054.2419 5 73af86c0ad401051f58619167dd7a9c2 3761703fd290bf28b6dac8125d120292
41 5536.1536 0 de8b04378b5d0bb70020df2e22cda40e 8004.5378 0 de2664c7b42532214c3c80b0eae1b3ba 8149.6527 0 831d6cf2149dbdb01237fac9150f0460 3465.3742 5 0f573ece71981e378962d80f0b6992bc 92830f601af82b2c39c7c25ad25596b3
42 5725.1093 0 e659d360e65bbf8e6b794089bad8cd07 8576.4550 0 580fe83728b03c6b63e433ebc5d96b0e 8685.8887 0 a3320b4c5a46a2833b79fcd2d34a6d70 2958.6841 7 c8e64e62908aa86b1142cb62554c8154 6e8df10799d215fa2791144e58de4db7
43 6556.9741 0 c1c477fd4a315ad265d34bad086bd524 8764.1723 0 cc31d7f863ece790b5643cde72d3f238 8551.6808 0 d016e22fad2dfc02eec0cd361c9f2e92 3242.4056 5 61e2e49def67e5d7c9c8cb675de34aa8 76f3455466476367d0ee8d4c1008fe3f
44 5144.2146 0 4b4872a621b63a9d86503f164329e5e1 6390.7181 0 ede40015fd079481b2905296a91d588f 7486.5014 0 1c46fae8e33c5f886f944f5ff2227815 2805.0410 6 86e41509fa208331bd76091a97aa9a04 45375ccbee4189a1a82cc6457256f235
45 4734.8887 0 1703da1e990c95de12282d4b868e1a50 5678.6339 0 8c41b91774f836a75160c39bae5c0a7d 5678.9229 0 f333088dbd3fceaf1a84f252b20996fc 2416.4368 6 1be789a0cdca500e97e2f8df8f5b8708 fca5bfdd04634b911cf4baba3e8ba085
46 5080.7485 0 6b10e7b2cab02dbad9dfcde4b6057a65 6319.5520 0 629f26699c5b7df17b3be9b6e5abca75 6852.6896 0 1bf37b3fe52105873166f2e46d90e37a 2958.4449 7 1f10c2e325fabeb1035d0adc2e626c06 f2753929dc4a495260e96bd4858d787d
47 4839.5913 0 ac62c1c7bfc3932204e612cc03dcb25d 5740.1630 0 73088601be7224c562fd86d4107de0e2 6192.5445 0 4d63f22f02ed328aefeaf4baccb95e97 3479.4149 6 ded35fb8cad8eb7162add07948f9d757 6052331e661b74d6fb5d14c0ad2d66c2
48 7877.9381 0 0bb333d4d39bc994a1ac9be9040682cf 9885.0824 0 b4df46f02536b062f9cf5d9e0e82f2ea 9279.5025 0 7698dfc4a4aee98367d73347b06033aa 4353.0894 8 530680f118b3bea5db987f764825ac0a 1088e53eefb329e67af955bfa4fc7b23
49 7198.2810 0 149a8a6e8457885acdf8c472917aac2e 8311.6651 0 0220204345e18017c0ed04d53d0e6b81 8369.4667 0 a8c4c5a8ba87f7b97133b8a858cfda22 4315.5788 5 13da5f6f5b13e2471f6846e4f1ffcad2 3bb048a9cfabb87b2e22dacc70e538c2
|golden}

let parse_golden () =
  golden_table |> String.trim |> String.split_on_char '\n'
  |> List.map (fun line ->
         match
           line |> String.trim |> String.split_on_char ' '
           |> List.filter (fun s -> s <> "")
         with
         | seed :: rest ->
           let rec cells = function
             | [ fixed ] -> ([], fixed)
             | e :: m :: d :: tl ->
               let rest, fixed = cells tl in
               ((float_of_string e, int_of_string m, d) :: rest, fixed)
             | _ -> failwith "golden table: bad field count"
           in
           (int_of_string seed, cells rest)
         | [] -> failwith "golden table: empty line")

let regen () =
  for seed = 0 to n_seeds - 1 do
    let ctg = ctg_of_seed seed in
    let cells =
      List.concat_map
        (fun (_, sched) ->
          let energy, misses, _, d = run_one sched ctg in
          [ Printf.sprintf "%.4f" energy; string_of_int misses; d ])
        schedulers
    in
    Printf.eprintf "%d %s %s\n%!" seed (String.concat " " cells)
      (digest (edf_fixed_delay ctg))
  done

let test_structural_feasibility () =
  (* A lighter sweep than the golden one: every scheduler on a handful of
     seeds must produce schedules the independent validator accepts
     (ignoring deadline misses, which deadline-oblivious baselines may
     legitimately incur). *)
  for seed = 0 to 9 do
    let ctg = ctg_of_seed seed in
    List.iter
      (fun (name, sched) ->
        let _, _, structural, _ = run_one sched ctg in
        Alcotest.(check int)
          (Printf.sprintf "%s seed %d: structural violations" name seed)
          0 (List.length structural))
      schedulers
  done

let test_eas_feasible_on_loose_deadlines () =
  (* Default TGFF tightness is loose enough that EAS must meet every
     deadline: full [is_feasible], not just the structural subset. *)
  for seed = 0 to 9 do
    let ctg = ctg_of_seed seed in
    let schedule = (Noc_eas.Eas.schedule platform ctg).Noc_eas.Eas.schedule in
    Alcotest.(check bool)
      (Printf.sprintf "EAS feasible on seed %d" seed)
      true
      (Validate.is_feasible platform ctg schedule)
  done

let test_golden_energies () =
  if Sys.getenv_opt "ORACLE_REGEN" <> None then regen ()
  else begin
    let golden = parse_golden () in
    Alcotest.(check int) "golden table rows" n_seeds (List.length golden);
    List.iter
      (fun (seed, (expected, expected_fixed)) ->
        let ctg = ctg_of_seed seed in
        List.iter2
          (fun (name, sched) (expected_energy, expected_misses, expected_digest) ->
            let energy, misses, structural, d = run_one sched ctg in
            Alcotest.(check int)
              (Printf.sprintf "%s seed %d: structural violations" name seed)
              0 (List.length structural);
            Alcotest.(check int)
              (Printf.sprintf "%s seed %d: deadline misses" name seed)
              expected_misses misses;
            let tolerance = Float.max 2e-4 (1e-9 *. Float.abs expected_energy) in
            if Float.abs (energy -. expected_energy) > tolerance then
              Alcotest.failf "%s seed %d: energy %.4f, golden %.4f" name seed
                energy expected_energy;
            Alcotest.(check string)
              (Printf.sprintf "%s seed %d: schedule digest" name seed)
              expected_digest d)
          schedulers expected;
        Alcotest.(check string)
          (Printf.sprintf "EDF fixed-delay seed %d: schedule digest" seed)
          expected_fixed
          (digest (edf_fixed_delay ctg)))
      golden
  end

let suite =
  [
    Alcotest.test_case "structural feasibility, all schedulers" `Quick
      test_structural_feasibility;
    Alcotest.test_case "EAS meets loose deadlines" `Quick
      test_eas_feasible_on_loose_deadlines;
    Alcotest.test_case "golden energy table" `Quick test_golden_energies;
  ]
