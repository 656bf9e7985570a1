"""Byte identity of CLI stdout, pinned by sha256.

The exact commands print only exact data (digits, graphs, integers,
booleans), so their digests hold on any platform.  The stochastic commands
(`mc`, `example32`) are pinned for a fixed seed and sample count: their
samples are counter-based and their orbits run in integers, with IEEE double
sums in a fixed order.  A change that alters one of these outputs must say
why and update its digest.
"""

import hashlib

import pytest

from negabeta.cli import main

BASES = {
    "cubic": "poly:-1,-1,0,1;interval:1,2",  # x^3 - x - 1
    "two": "poly:-2,1;interval:1,3",
    "three": "poly:-3,1;interval:2,4",
    "golden": "poly:-1,-1,1;interval:1,2",  # x^2 - x - 1
    "defective": "poly:-1,-1,-2,1;interval:2,3",  # x^3 - 2x^2 - x - 1: d(1) = 21(2), so "20" is inadmissible
    "quartic": "poly:-1,0,0,-1,1;interval:1,2",  # x^4 - x^3 - 1: 14 states, 2 components
    "x4x1": "poly:-1,-1,0,0,1;interval:1,2",  # x^4 - x - 1: 15 states, 3 components
    "quintic": "poly:-2,0,2,-1,-2,1;interval:2,3",  # x^5 - 2x^4 - x^3 + 2x^2 - 2: 52 states
}

COMMANDS = {
    "yrrap": ["yrrap"],
    "graph_json": ["graph"],
    "graph_dot": ["graph", "--format", "dot"],
    "components": ["components"],
    "spec": ["spec", "--oracle-maxlen", "5"],
    "gbeta": ["gbeta", "--n", "12"],
    "spec_6": ["spec", "--oracle-maxlen", "6"],
    "gbeta_30": ["gbeta", "--n", "30"],
    "validate": ["validate", "--maxlen", "7", "--seed", "3"],
    "cyl_csv_8": ["cyl", "--format", "csv", "--maxlen", "8"],
    "cyl_csv_7": ["cyl", "--format", "csv", "--maxlen", "7"],
    "cyl_csv_6": ["cyl", "--format", "csv", "--maxlen", "6"],
    "cyl_json_5": ["cyl", "--format", "json", "--maxlen", "5"],
}

# (base, command) -> (exit code, sha256 of stdout)
GOLDEN = {
    ("cubic", "yrrap"): (0, "7b481bc8d7e049f5bd099cab51646406da8e358a6b44d0973c87da5844e5d545"),
    ("cubic", "graph_json"): (0, "9a42acc418cd530a2fcade0195b6e27130ad959590c9116e06f03fd7053d2628"),
    ("cubic", "graph_dot"): (0, "762fb9a0fe99f2246fbe494212b617bcc5816c1db06fabd06940e17009d1d5d5"),
    ("cubic", "components"): (0, "4105754adc58602315f114a9f57c379ab331ccaa500701aaff7d3c4295d25796"),
    ("cubic", "spec"): (0, "77384c04086355939b5ab9f7990c837bdaa3c7f3fef8b66b234cdab0b4938b2c"),
    ("cubic", "gbeta"): (0, "08544959134b766bc878629fac2b9a45307d6321a462283d555fbe5622713ece"),
    ("cubic", "validate"): (0, "f8c4b1cb93d2a1fafd87b8bc9994863031f286bcddefa2d3f35ff80dc1689679"),
    ("two", "yrrap"): (0, "963c96693130d5b51840b1ae0d00b2a039dc59123007444edf2321e971606627"),
    ("two", "graph_json"): (0, "c46bd9d4574512985760b3f31c69ea225ba07205400daa5111f7def9eb77411a"),
    ("two", "graph_dot"): (0, "0abc67a9a5ead95357f2fe0b5a52d62478e8ae3d26b78ea5f7200b5ace155e1f"),
    ("two", "components"): (0, "939cead274985a1de2a68a91b932e3d6ea542bff69af54a0becc0a32cc7ac906"),
    ("two", "spec"): (0, "8a72074503c44ffc3e023d95b81aca82b8943b80bd3bf493c64ea5ca0df95915"),
    ("two", "gbeta"): (0, "cec8d7c5cf4bb05a99304c6ac0d5b7ece5c54841acd53a8d4d7e8ce08afa63ca"),
    ("two", "validate"): (0, "f8c4b1cb93d2a1fafd87b8bc9994863031f286bcddefa2d3f35ff80dc1689679"),
    ("three", "yrrap"): (0, "229671a1e0d913e0c92d68dc7891ac100bb52677550b43f5bafdc36e56bc2173"),
    ("three", "graph_json"): (0, "213d24af529f38b15640efd730199c2928374730bc0a0ed9ea4553c227b0f5f4"),
    ("three", "graph_dot"): (0, "a9f624a2f522b2dc5e0265d7c587468a19430938a391bdce0deb30a58573bee4"),
    ("three", "components"): (0, "6b484250afe954906ea7eb652ac413abdf46d623767177ddfa588c1a49c90995"),
    ("three", "spec"): (0, "8a72074503c44ffc3e023d95b81aca82b8943b80bd3bf493c64ea5ca0df95915"),
    ("three", "gbeta"): (0, "cec8d7c5cf4bb05a99304c6ac0d5b7ece5c54841acd53a8d4d7e8ce08afa63ca"),
    ("three", "validate"): (0, "f8c4b1cb93d2a1fafd87b8bc9994863031f286bcddefa2d3f35ff80dc1689679"),
    ("golden", "yrrap"): (0, "61be564998738001ad1d353803073e094fe8a4c155f281eca1e8a6fce2e1e9c4"),
    ("golden", "graph_json"): (0, "59a2a384d17be239d4444a72ed32ef9652c9308843e37340901d9654e1d503e4"),
    ("golden", "graph_dot"): (0, "f329a2af642f1ad3224f1f66a1cc7f61e19b22ed8451068e33315f3273c05f89"),
    ("golden", "components"): (0, "6e022aec9d780dfee93d9b3c1534f993fd07b5f4a0cbc847563aa08172301d75"),
    ("golden", "spec"): (0, "b18182833728c601ee2ca8c671a6682884db33a029b09b871157f067a48ed3be"),
    ("golden", "gbeta"): (0, "db3d54858607186088ac7c4be854092ccc08abad1e6b402c5095853b42672cad"),
    ("golden", "validate"): (0, "f8c4b1cb93d2a1fafd87b8bc9994863031f286bcddefa2d3f35ff80dc1689679"),
    ("defective", "yrrap"): (0, "dea7637e5caeeaf8966214aa47c5396d3bea0e8ba44e765e6565f3e43211a0be"),
    ("defective", "graph_json"): (0, "c5c3847bb7e8ae846d938b1827be91b1787350b761989eb83295a204bc53c409"),
    ("defective", "graph_dot"): (0, "668c338ddd3067185ef8a25eb80686ea8902949d85f1ca9dd9d3aacb9087fab8"),
    ("defective", "components"): (0, "9cb7a2a086cfb5d7710f9dc6ca8c77f01db2febeba3f5abe3f272dc16d09c304"),
    ("defective", "spec"): (0, "1b58cc7f76576117e6de8a16509daa4100740b8fa6392ec26c89e58ef89ff998"),
    ("defective", "gbeta"): (0, "7a8cebfbc7ae53cef2b61ea65a42944c5825ba5df1ade4db060fdc05730456f1"),
    ("defective", "validate"): (0, "f8c4b1cb93d2a1fafd87b8bc9994863031f286bcddefa2d3f35ff80dc1689679"),
    ("cubic", "cyl_csv_8"): (0, "ae3e35deaa878799d9c5a9096a93d417ccc484a365227395cc20c2cad50f85cc"),
    ("cubic", "cyl_json_5"): (0, "43f7fbe9d3881aac5efda9f0a0f6be79d89015a9e168747067bbf3e6c90ab73a"),
    ("two", "cyl_csv_7"): (0, "ed2faa9d4c51893c0ed103fcda0ffe54413575c21da749ba0be58fe0bbc1001d"),
    ("golden", "cyl_csv_7"): (0, "4076e3e38af4a68ded792cd0483a63740fb426d4a54fbede9c2be675a8a6e5e2"),
    ("defective", "cyl_csv_6"): (0, "c20ebb9f379b6ace4f9f5b7571798402f8920fc27ddcad1ad403a2a32a859d2f"),
    ("cubic", "spec_6"): (0, "77384c04086355939b5ab9f7990c837bdaa3c7f3fef8b66b234cdab0b4938b2c"),
    ("quartic", "spec_6"): (0, "b8b7cbd6237a8e4658f5ded9dc90ab4c250cc32787d4d3dc2e5fff3c5c7c9669"),
    ("quartic", "gbeta_30"): (0, "a77f575af8d96b09645794817661d4633949fd9d377a42aa2d2adff3dcfa56b0"),
    ("x4x1", "graph_json"): (0, "173535d03770f9303e0b9f4393daede861ba99e8f2068655276d152ff725e549"),
    ("x4x1", "components"): (0, "79535f0297bfe027f4e606cd405a9603f4acd29e350083e92d22d3cf52ba2ba7"),
    ("x4x1", "spec_6"): (0, "9aea806143fa5bb4ca8acf9812a2bf5801735e574311e80e6eac427ce8311f54"),
    ("x4x1", "gbeta_30"): (0, "144054b1dea32160bda47b83f66a7a77a8e43a1969e83c9b1493c1e466d3461a"),
    ("x4x1", "validate"): (1, "c92f9b97177402ded874bdb3acf2155dfb0a1e2b72fd4959bfdb5af9dd901648"),
    ("quintic", "graph_json"): (0, "349f607f3550a336d009d14c365c363817c81603385662fc9f80d6229db7dd18"),
    ("quintic", "components"): (0, "c8e9ae720b8af7dc60f7d2a850a42172f965edeca1365f066fa2bfdbe6c0bf24"),
    ("quintic", "spec_6"): (0, "8eb97e89e879e6b91a6707672f6115513bcdbf5e1c79264852efeb7e16015271"),
    ("quintic", "gbeta_30"): (0, "3a4b94ae5af7c1d9f9d9119bd2c27f6794a1ca72bc9f688649c0812f9fd6f61e"),
    ("quintic", "validate"): (0, "f8c4b1cb93d2a1fafd87b8bc9994863031f286bcddefa2d3f35ff80dc1689679"),
}

# example31 takes no --beta: maxlen -> (exit code, sha256 of stdout) of `example31 --maxlen <maxlen>`
EXAMPLE31 = {
    6: (0, "9f58c3da97989784cc10a1ca2fe5681d7697b7c464d9040ea7218d667e731694"),
    7: (0, "2b6270f6a61f410ee031f1affa1127092cfcd7cc7ca1b7111949c9a088543980"),
}


@pytest.mark.parametrize("base, command", sorted(GOLDEN))
def test_cli_stdout_is_pinned(base, command, capsys):
    name, *options = COMMANDS[command]
    code = main([name, "--beta", BASES[base], *options])
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == GOLDEN[(base, command)]


@pytest.mark.parametrize("base", ["cubic", "x4x1", "quintic"])
def test_validate_reads_no_seed(base, capsys):
    # every check of validate is exhaustive, so a seed, or none, changes no byte
    runs = set()
    for seed in (["--seed", "1"], ["--seed", "3"], ["--seed", "12345"], []):
        code = main(["validate", "--beta", BASES[base], "--maxlen", "7", *seed])
        runs.add((code, capsys.readouterr().out))
    assert len(runs) == 1


def test_example31_stdout_is_pinned(capsys):
    for maxlen, expected in EXAMPLE31.items():
        code = main(["example31", "--maxlen", str(maxlen)])
        out = capsys.readouterr().out
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == expected


# Stochastic commands, each with an explicit seed: name -> (argv, (exit code, sha256 of stdout)).
# The sample counts straddle the lane batch of 4096 (4095, 4097, 8192, 10000);
# exit 3 is a window no sample hit.
STOCHASTIC = {
    "mc_cubic": (["mc", "--beta", BASES["cubic"], "--obs", "digit1", "--window", "0.0:0.2",
                  "--n", "30", "--N", "10000", "--seed", "1"],
                 (0, "187134d60b550529bbe1880345c5a3865317910209849a3066af5e5a4bc8d0c4")),
    "mc_golden": (["mc", "--beta", BASES["golden"], "--obs", "digit1", "--window", "0.0:0.3",
                   "--n", "30", "--N", "8192", "--seed", "2"],
                  (0, "2a7158d3a90376028ebc47e1c3bfa273c12e7e0ae2f6c0188d4ff40ef8008695")),
    "mc_two": (["mc", "--beta", BASES["two"], "--obs", "digit1", "--window", "0.7:0.8",
                "--n", "30", "--N", "20000", "--seed", "3"],
               (0, "fb9355f59d3ffa8c59431789462cff06b35bb77152a2fbcca19d8a8ac1b37f2e")),
    "mc_silver": (["mc", "--beta", "poly:-1,-2,1;interval:2,3", "--obs", "digit1",
                   "--window", "0.4:0.6", "--n", "25", "--N", "4097", "--seed", "4"],
                  (0, "90911ff88060cede8bff367988124e804dda414d4eca449a4f77e9d16e86b99e")),
    "mc_decimal": (["mc", "--beta", "decimal:1.7;precision:30", "--obs", "digit1",
                    "--window", "0.0:0.3", "--n", "30", "--N", "5000", "--seed", "5"],
                   (0, "e7656b1f5d6646f0ecab434a01d870d0306586e7533efce1ffacbd497914ab3d")),
    "mc_b300": (["mc", "--beta", "poly:-300,1;interval:299,301", "--obs", "digit",
                 "--window", "140:160", "--n", "10", "--N", "3000", "--seed", "6"],
                (0, "b63cc5d8e6764d3f03aa591a6a8ef253b2b0cf4829b56bb469acecc3d50f6283")),
    "mc_three": (["mc", "--beta", BASES["three"], "--obs", "digit2", "--window", "0.5:1.0",
                  "--n", "20", "--N", "4095", "--seed", "7"],
                 (0, "f52e406b895692397923ceba675a1807fc8be42ca7dd9fdb30d55d4ebd317703")),
    # 130 steps use 90.25 bits of orbit: no double orbit can be certified
    # (_certificate_bounds is None), so every row runs in the integer lanes
    "mc_golden_lanes": (["mc", "--beta", BASES["golden"], "--obs", "digit1", "--window",
                         "0.3:0.45", "--n", "130", "--N", "3000", "--seed", "4"],
                        (0, "2908a978e16c9c7f26c9353e69b863906f0c2b74e23e6b4fb97d3ded04ec6865")),
    "mc_never_hit": (["mc", "--beta", BASES["cubic"], "--obs", "digit1", "--window", "0.99:1.0",
                      "--n", "40", "--N", "500", "--seed", "8"],
                     (3, "095ebd26b8e797fdf824b5d3d20fca6b15b995b740586cccfe6a72d9b04b7f87")),
    "example32": (["example32", "--n", "30", "--N", "20000", "--eps", "0.1",
                   "--a-window", "0.3:1.0", "--seed", "1"],
                  (0, "4c1df551c448e2f8db523c305bdf4490b34344735f982378349c04d2c2f3d7ba")),
    "example32_never_hit": (["example32", "--n", "50", "--N", "2000", "--a-window", "0.99:1.0",
                             "--seed", "3"],
                            (3, "ce70cb2c7bc3eec4bef7e780f13256f31d3c07db1ef503361eb5abe6876bfa26")),
}


@pytest.mark.parametrize("name", sorted(STOCHASTIC))
def test_stochastic_stdout_is_pinned(name, capsys):
    argv, expected = STOCHASTIC[name]
    code = main(argv)
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == expected
