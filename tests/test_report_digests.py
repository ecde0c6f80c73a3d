"""Pinned sha256 digests of small ``afpath verify`` reports.

A report is fully determined by (source, depth, seed, samples, suites), so
a change to the arithmetic that alters any byte of it fails here.  The
digests were recorded before the exact-integer kernels carried their forms
with the tables, and every change since must reproduce them.  The seeded
random diagrams and the built-ins at depths 1, 2 and default were recorded
before the suites' levels were named once in the harness: the level ranges
there are cut at ``depth - 1``, at the depth and at fixed levels, so an
off-by-one in one of them shows only at some depths.
"""

import hashlib

import pytest

from afpath import harness, serialize_diagram
from afpath.cli import main
from test_extension_maps import random_diagram

# Vertices 1,3,3,3,3 with multiplicities 0-2: parallel edges and several
# vertices per level, which no built-in has.
MIXED = """BRATTELI 1
levels 4
vertices 1 3 3 3 3
incidence 0
1 2 1
incidence 1
1 0 1
1 1 0
0 2 1
incidence 2
2 0 1
0 1 1
1 1 0
incidence 3
1 0 0
0 1 1
1 2 0
"""

DIGESTS = {
    ("car", 7): "eaef6c5dfbac47f070a0612a4a7354b1cc4d9cdcaf54bc3f167f02f33cee4a10",
    ("car", 11): "d6c5ef59c0fbd9b510671b0e41932340c88104e8796341e0dbb59084293f5219",
    ("pascal", 7): "3b5e89b27be3a4b911906f9a4f648d650c0dce60ba22c97de34e93637ae0e805",
    ("pascal", 11): "ebbaa79b5f179dbe3d4630d7727ae111deb29dbaa77f7da8fcceb41b8a0a4bf6",
    ("fibonacci", 7): "0a4245b9fc480da14749cf1d2d84b9cc2b461b60bdece299d2d99b42a2c0702a",
    ("fibonacci", 11): "e0c76c8b0167b687f99a8c2252189b866f8d6320f1d615f4edcaa42e7e6d542f",
    ("uhf3", 7): "adb98086d1d3d61f385bb1e498bf8b7f2d21f11ba619dc114ccf144ea61658f8",
    ("uhf3", 11): "94d4eef86809b30ef48dcd4eec455d28a3ed55cd2d31913e8bee255fc72bf972",
    ("mixed.bratteli", 7): "ed5afec313713495760fdfc3856719c32ef927f92046f2d9dca8063d28f1d547",
    ("mixed.bratteli", 11): "2fefffc6cd18742857a68d2a4b15be00daf38f664b68922eb102da5177289cfe",
}


@pytest.mark.parametrize("source,seed", sorted(DIGESTS))
def test_verify_report_digest(source, seed, tmp_path, monkeypatch, capsys):
    # The report header names the source, so the file is read through a
    # relative path from a fixed name.
    (tmp_path / "mixed.bratteli").write_text(MIXED)
    monkeypatch.chdir(tmp_path)
    assert main(["verify", source, "--depth", "3", "--samples", "5", "--seed", str(seed)]) == 0
    report = capsys.readouterr().out
    assert report.endswith("RESULT PASS\n")
    assert hashlib.sha256(report.encode()).hexdigest() == DIGESTS[(source, seed)]


# Seed of ``random_diagram`` -> digest of its report at depth 3, 5 samples.
RANDOM_DIGESTS = {
    0: "6f7f43f51c2b16b6dd1e406a295438742f547a5dd359794e8e9af77292bcbda7",
    1: "b3ed745efed6ff09ce40298a53b35d8c48188343d42e397f7cc5f15d0f6c8194",
    2: "84cc0c03020e5c98115c30b0558afee2e780d12de2f3d3031019fdf3e42f7bac",
    3: "61ab4a2707ebc759063cc9603adc97746a0cc7b1e5a97812ab523c164922c59c",
    4: "b074d46f22195720975d2bd2ff3f0257da637123eed0e65c4359dad2f44e8ac6",
    5: "6734181a677c82a2c6d60e7e1459bd732ada9e9b051806021b6b97f721a236cc",
    6: "2677a58d1bf7a8464adf14342021354dcd7657456bc335a2aa1dc39c6e1c458d",
    7: "d4b4826fd23873f13acf61bb0aab92158c710ca51b13180f3f57fbb0b52ca3f1",
    8: "50e78c1668881e7dd2547367a5c05f4ca442b6983459204780f2c908ec7dec44",
    9: "3bcf06734c71020f113ee287d305dc9e0b4fdf0cd4aceced4b38ce351a8b3120",
    10: "47335e4420a68963dd1fd007e2b96f20b9f680040b829deddb1456e94e5d8aa0",
    11: "a111a14fbd5e8698ab42b4a34bcfd70aedb1f334fc44c76523073eaafea8df36",
}


@pytest.mark.parametrize("seed", sorted(RANDOM_DIGESTS))
def test_random_diagram_report_digest(seed, tmp_path, monkeypatch, capsys):
    name = "random-%d.bratteli" % seed
    (tmp_path / name).write_text(serialize_diagram(random_diagram(seed)))
    monkeypatch.chdir(tmp_path)
    assert main(["verify", name, "--depth", "3", "--samples", "5"]) == 0
    report = capsys.readouterr().out
    assert report.endswith("RESULT PASS\n")
    assert hashlib.sha256(report.encode()).hexdigest() == RANDOM_DIGESTS[seed]


# Built-ins at depths 1 and 2 and, where cheap, at their default depth
# (None), seed 7, 5 samples.
BUILTIN_DIGESTS = {
    ("car", 1): "e4cba0baec4da9f0207e58c1a5d91fe439c1fa8099d7db011cd198cd33e0d916",
    ("car", 2): "b5d40e2fe6598ad5a24133d171c2341ae0f031b6a3b410c56e9d1299d94f48be",
    ("pascal", 1): "5d01b7288cc7ff8a0d8979c56112f86593ef5c149679d9b0a4f64749b6866784",
    ("pascal", 2): "5b8382d7ac980365fd7c6b8bb7a6f5a7af3509e64c301828da93df3e7a362eb0",
    ("fibonacci", 1): "119f4a3a309b17fc49debaa9176254d2822c881f2c449ce8037f669f3ae6d58e",
    ("fibonacci", 2): "e1f5a5452fa174c7d4f0d0589e02aca6a62124596367436cf159eb5785f0a4c9",
    ("uhf3", 1): "cc260296b1eb78d38c08bddcad22f92c26f356e9452c8b9cc9638102f7d5618c",
    ("uhf3", 2): "b8927ed067ee3177a63e7bf5a7148da4ab84d3a289aebc5e8f5cbbbb4a63b850",
    ("car", None): "7ac5f5327d663a40e982675b7d3a971cfaf278801feaf89d13d7e1e0f3d8c1b0",
    ("pascal", None): "9af95569a80e01dabe50b2aac50b327c1f14db0446af72c9a022bcea0ba71795",
    ("fibonacci", None): "b0dfa53c197e745dac1b0457c84071405255b6aa1b046f083aa3d72ee7f80c67",
}


@pytest.mark.parametrize("source,depth", list(BUILTIN_DIGESTS))
def test_builtin_report_digest(source, depth, capsys):
    extra = [] if depth is None else ["--depth", str(depth)]
    assert main(["verify", source, "--samples", "5"] + extra) == 0
    report = capsys.readouterr().out
    assert report.endswith("RESULT PASS\n")
    assert hashlib.sha256(report.encode()).hexdigest() == BUILTIN_DIGESTS[(source, depth)]


# -- the suites' draws ----------------------------------------------------------------
#
# A report holds only pass/fail and check counts, so a change that draws
# different samples could still print the same bytes.  These pins hash the
# RNG state after each suite body; they were recorded before the cylinder
# suite drew its eval-refine path as an id instead of from ``paths(m)``.


def _draw_digest(monkeypatch, capsys, argv):
    states = []

    def wrap(name, body):
        def run(ctx, chk, rng):
            body(ctx, chk, rng)
            states.append((name, rng.getstate()))
        return run

    for name, body in list(harness._SUITE_FUNCTIONS.items()):
        monkeypatch.setitem(harness._SUITE_FUNCTIONS, name, wrap(name, body))
    assert main(["verify"] + argv) == 0
    assert capsys.readouterr().out.endswith("RESULT PASS\n")
    return hashlib.sha256(repr(states).encode()).hexdigest()


# (source, seed, depth) -> digest of the RNG states at default samples.
BUILTIN_DRAW_DIGESTS = {
    ("car", 7, None): "35b0f5cf7df9089b81e5e269c2e3764cab6204e05e452c57b1388d3f9395a71c",
    ("car", 11, None): "c224f1368aada41bf40e376fccc8f5cadb63c59f539514d9163fb7f5d1b155d4",
    ("pascal", 7, None): "3a10fdc62da5b740d12532ce9ce3f842bb7106a9714a1a51a4865db86e07ca42",
    ("pascal", 11, None): "d473bdf9c964dc35d681e632bf319c5f0d3a93c1ab319cae72212f7917e5a422",
    ("fibonacci", 7, None): "bcbb3bb0a37e2690d18c1271ad4f26fdda91736302caac67f4484cec32442557",
    ("fibonacci", 11, None): "7683bd71d7bfce14f613ced5c07ec66876704198aab9a705523ba39da1f0a059",
    ("uhf3", 7, None): "b737e5917191e1f942d07d11c0447e821285ba6debb6fc276a46216eef623a17",
    ("uhf3", 11, None): "664a6f0f06166eaf0f654d5ecb05fd4b23f7731394d0d8b4d48b9652938fbf01",
    ("car", 7, 12): "4a3bac81a3813bd8633d4ffac164c21c14659ae342526b61d0585739e8978e80",
}


@pytest.mark.parametrize("source,seed,depth", list(BUILTIN_DRAW_DIGESTS))
def test_builtin_suites_draw_the_same_samples(source, seed, depth, monkeypatch, capsys):
    extra = [] if depth is None else ["--depth", str(depth)]
    got = _draw_digest(monkeypatch, capsys, [source, "--seed", str(seed)] + extra)
    assert got == BUILTIN_DRAW_DIGESTS[(source, seed, depth)]


# Seed of ``random_diagram`` -> digest of its RNG states at depth 3, 5 samples.
RANDOM_DRAW_DIGESTS = {
    0: "f4f994b8036842ba6a4ea5e58ee66d7d6c2aee8edb80d8e9ad7fcda49654f079",
    1: "953569f9b5f48813afbbf3083eacbe760a49a5b7b83c689e15ab70ae15a4bc9f",
    2: "31f87d3cb0259062e9dbce4720c258d85c13294ece0605adb8b088b668ebdf06",
    3: "e89d0c50f7e85f4d796c444dc1feb439106f508c883c09727d577ec508a832f4",
    4: "5cf405bfe99f60a21ad940abc9f0ee8008680a9992f51c474b322642b3994e56",
    5: "f1f3518424e4acef569ed122251585c62614fc895bb389a0eb147d61db26fe77",
    6: "38fa3497f5087a3b49c21dbabbec3a47b2195b10ef9f47241271775e1a3ad27c",
    7: "2a046869efa2e5b16f9810dcc72c4840e4208b1246578c00c1f47df5ab5704ce",
    8: "4312999d965b5fa1c178c1faae4490a667f7df7cb9a1315955c71edbcff76231",
    9: "36aacfd768bd0fcfac3ad78e81cdd9a0811b443947a447e477b7163bfeed7371",
    10: "520427a2c640f0dbe43ba839ecde0dda32b06c0a9644e6ec8e61d584ac8f09ee",
    11: "ea726b08c5f53e7bf9f5bf64ecc8887e2c4167e51af62df32565f0cad8a97cfc",
}


@pytest.mark.parametrize("seed", sorted(RANDOM_DRAW_DIGESTS))
def test_random_diagram_suites_draw_the_same_samples(seed, tmp_path, monkeypatch, capsys):
    name = "random-%d.bratteli" % seed
    (tmp_path / name).write_text(serialize_diagram(random_diagram(seed)))
    monkeypatch.chdir(tmp_path)
    got = _draw_digest(monkeypatch, capsys, [name, "--depth", "3", "--samples", "5"])
    assert got == RANDOM_DRAW_DIGESTS[seed]


# -- which elements the draws pick ------------------------------------------------
#
# The RNG state after a suite shows how much randomness it consumed, not
# what it did with it: a draw that reads a block in reverse consumes the
# same.  These pins hash, per suite, every value the harness's random
# builders return and every unit pair ``_unit_pairs`` draws.  They were
# recorded before ``terminals`` and ``tail_classes``, which feed those draws
# directly and through ``block_paths``, were rebuilt on C iterators.

_DRAWERS = ("_unit_pairs", "random_cylinder", "random_af_element", "random_groupoid_function")


def _picked(name, value):
    """What a draw picked, in a form that does not depend on the table layout."""
    if name == "_unit_pairs":
        return [(a, b, c, e) for (a, b, _), (c, e, _) in value]
    if name == "random_cylinder":
        return value.level, [x.to_report() for x in value.table]
    levels = (value.level,) if name == "random_af_element" else (value.support_level, value.table_level)
    return levels, sorted((ab, x.to_report()) for ab, x in value.table.items())


def _pick_digests(monkeypatch, capsys, argv):
    """Per suite, the sha256 of everything its draws picked, in draw order."""
    picks, suite = {}, [None]

    def wrap_suite(name, body):
        def run(ctx, chk, rng):
            suite[0] = name
            body(ctx, chk, rng)
        return run

    def wrap_draw(name, draw):
        def run(*args):
            value = draw(*args)
            picks.setdefault(suite[0], []).append((name, _picked(name, value)))
            return value
        return run

    for name, body in list(harness._SUITE_FUNCTIONS.items()):
        monkeypatch.setitem(harness._SUITE_FUNCTIONS, name, wrap_suite(name, body))
    for name in _DRAWERS:
        monkeypatch.setattr(harness, name, wrap_draw(name, getattr(harness, name)))
    assert main(["verify"] + argv) == 0
    assert capsys.readouterr().out.endswith("RESULT PASS\n")
    return {name: hashlib.sha256(repr(got).encode()).hexdigest() for name, got in picks.items()}


# argv after ``verify`` -> {suite: digest of its picks}.
PICK_DIGESTS = {
    ('car', '--depth', '3', '--samples', '5'): {
        'cylinder': '3d4879782a7c1cd126a06d741925e0688245b1b5d44954e468002c1dd59e8139',
        'expectation': '250a9091a83fdc83c07f6311539726fd909aaf660548be9a9f7a23d01e0d758c',
        'matrix_units': '35db16588530578631c513fbb992f909f4fc90e3189ffdd6d37f4d4001c37b53',
        'tower': '3a6c1ce1d75b0a8011a5d8cef2884fa726a5638d5cb306256167bcaf38573757',
        'groupoid': '8c40c7b13be8f88adbfd3a46b02285d5aabcee4c85784148ef517ae16fce0c27',
    },
    ('pascal', '--depth', '3', '--samples', '5'): {
        'cylinder': '3d4879782a7c1cd126a06d741925e0688245b1b5d44954e468002c1dd59e8139',
        'expectation': '250a9091a83fdc83c07f6311539726fd909aaf660548be9a9f7a23d01e0d758c',
        'matrix_units': '4d33cbe74956acf7ff0c901529ab34ba4faa9839115cab77d5fdb09012525538',
        'tower': 'faf8a6e9596377b7cf1fdf74e0a7e4ef8a6dda3aad575280eea957317668fcac',
        'groupoid': '3682a7af8eb724bc68c9097403c7d4f4522eee4d83473563ccba86c0b25d0088',
    },
    ('fibonacci', '--depth', '3', '--samples', '5'): {
        'cylinder': '04e4fc0ed028cca00dcd1c08662aa7318d669b9280cb3d71015a0f3ab4301fa7',
        'expectation': '0423cb61ac23e08046c969d8d7b68c77e7ecc8c4661ac52a3e1c1566a80460f9',
        'matrix_units': 'b58766d036bd03018f6d206bc7dda80e788d23c3727858f0db00aaa1259f8ef6',
        'tower': '0b0b923f3f1220186b7280b949f38bb1e461168f0987611ad516d26bf54b73f0',
        'groupoid': '569e5d73e14c7cd933daf3f06f89f4c1a38731720d73b89d526ce6431932561f',
    },
    ('uhf3', '--depth', '3', '--samples', '5'): {
        'cylinder': '1ac81de993b7e8239b93bb87b5d34df448b453d013ff0956f8d784fcf702d14c',
        'expectation': '915178f795f609f782e55a7d2ecf6c099736bd0e417c9ea81c6c5a327906e0b3',
        'matrix_units': 'cb73e05090d95ad3c92a00b884a3b68b567ec69e210b283e0b2d9ba5743e37d2',
        'tower': '4cd5cc2cb319e52b5e4baf918663e7dec99e2cf0670ce8ec62cabb33354f2941',
        'groupoid': '2d7a6275b923835a52d691e3e71f95ce3dbeaf425e35f9386c2956ad18867259',
    },
    ('random-0.bratteli', '--depth', '3', '--samples', '5'): {
        'cylinder': '801f4f2c98eadedd036317090eea12437d94c70178b5be9b3049ba062ccbdc32',
        'expectation': 'f6e84d8423959810298d5969e9e4c4b6b10e97721080610536f2e51f55e596d1',
        'matrix_units': '2a57d6075894d9b870a8201aa8fe5247f0d035540b11deeb94a7c7529b1321e3',
        'tower': '116b046e6377d940caba0dad6b853930e38e10bacbfc27f61d742986d67e52e6',
        'groupoid': 'fb65ff311e4485cd260b654b18a99fc6a497b8e50f32803316f0f315a5061946',
    },
    ('random-1.bratteli', '--depth', '3', '--samples', '5'): {
        'cylinder': '525160c186c3b62390872a24c6583fdeaa812554bd44d7637b069a9d10f61aa0',
        'expectation': '818f7543bb62e6b38fc7d88a1a06b3d3bad8205d972df5c59b7b940e11bca46a',
        'matrix_units': '170430576f9cbb87cc340f52f57cf597b099a3685fe90ccc6a8b2c75b3bdf109',
        'tower': '0f19730fbcdfd3ef276ba60c8d5030ec78ea140c2bd06162cf5d6ecf95a868b1',
        'groupoid': '14dfa7fadc5d2fe5eba44b990a515fadda492c90dc48602b864fba792ff1ec6b',
    },
    ('random-7.bratteli', '--depth', '3', '--samples', '5'): {
        'cylinder': 'ec51ae6ab43be00ae35cadb2a6ccb9e7f0eb1dab5556486b9471af4c5b9ab0fa',
        'expectation': 'ceb998cc1d93fb51b8858972410228cac50cb5bf98bcfb8fbecde0e9c71a7dbc',
        'matrix_units': '22f7d6ebaadb1f23e2a77031d7cdf74da9f73e9635b2b365189e5c9d7a79729f',
        'tower': 'd386d7d5a7d5f981fb71a618da565eb0d80b1d643560fc74eb00e4d1005a344a',
        'groupoid': '7134c2deb1e0172456cd9e2645f57b554a06687124c5cfc54dd96c1c7735973c',
    },
    ('random-10.bratteli', '--depth', '3', '--samples', '5'): {
        'cylinder': '444020919fcfc1af303bda474122af8b6bd1d428d9b286cb0052c7a0eadd764d',
        'expectation': 'f84556fa1ce2f634041799e1a0f2be409fa768463dfb774f61b2cb26eeb4fd11',
        'matrix_units': 'bade0d6e55610bf8935239563b831655cb7a84469b8b751cdaefc11fb4068fdd',
        'tower': '2d9bee1994fe9081a855d4b22a1415221db9b87712510af271e2c23b2d3fa955',
        'groupoid': 'b9b19a928332f08dc51eff05e82feae8d14e1b7c9ea98934093744582dee8741',
    },
}


@pytest.mark.parametrize("argv", sorted(PICK_DIGESTS), ids=lambda argv: argv[0])
def test_suites_pick_the_same_elements(argv, tmp_path, monkeypatch, capsys):
    source = argv[0]
    if source.startswith("random-"):
        seed = int(source[len("random-"):].split(".")[0])
        (tmp_path / source).write_text(serialize_diagram(random_diagram(seed)))
        monkeypatch.chdir(tmp_path)
    assert _pick_digests(monkeypatch, capsys, list(argv)) == PICK_DIGESTS[argv]
