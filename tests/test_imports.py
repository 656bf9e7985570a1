"""What importing the package, and running each command, loads.

`import negabeta` loads none of its modules; each exported name is imported
from its home module on first access, and each subcommand imports only the
modules it runs.  Module sets are read in a fresh interpreter.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import negabeta

_CHECK = r"""
import sys

# a startup hook may have imported the stdlib random (site-packages' .pth files
# can reach it through tempfile); forget it, so that a later import shows
sys.modules.pop('random', None)

def loaded():
    return {m for m in sys.modules if m == 'negabeta' or m.startswith('negabeta.')}

import negabeta
assert loaded() == {'negabeta'}, f'import negabeta loaded {sorted(loaded())}'
assert 'logging' not in sys.modules, 'import negabeta loaded logging'

from negabeta import cli
beta = ['--beta', 'poly:-1,-1,0,1;interval:1,2']
assert cli.main(['yrrap', *beta]) == 0
expected = {'negabeta', 'negabeta.algebraic', 'negabeta.transform', 'negabeta.cli'}
assert loaded() == expected, f'yrrap loaded {sorted(loaded() - expected)}'
assert 'json' not in sys.modules, 'yrrap loaded the json package'

STRAY = {'negabeta.ldp', 'negabeta.sampling', 'negabeta.intervalmaps', 'hashlib', '_sha2',
         '_sha256', 'numpy.random', 'logging'}

# the exact commands draw nothing at random, so none loads the stdlib sampler;
# validate needs no seed
for argv in (['graph', *beta], ['components', *beta], ['spec', *beta, '--oracle-maxlen', '4'],
             ['gbeta', *beta, '--n', '10'], ['cyl', *beta, '--maxlen', '4'],
             ['validate', *beta, '--maxlen', '4']):
    assert cli.main(argv) == 0, argv[0]
    stray = (STRAY | {'random'}) & set(sys.modules)
    assert not stray, f'{argv[0]} loaded {sorted(stray)}'

# numpy imports the stdlib random itself, so entropy runs after them
assert cli.main(['entropy', *beta]) == 0, 'entropy'
stray = STRAY & set(sys.modules)
assert not stray, f'entropy loaded {sorted(stray)}'

# the rate commands run no digit engine, so they load no sampler; the digit
# engines and the rate share no code with the companion systems
for argv in (['rate', *beta, '--a', '0.3'], ['compare-rates', *beta]):
    assert cli.main(argv) == 0, argv[0]
    assert 'negabeta.ldp' in sys.modules
    stray = {'negabeta.sampling', 'negabeta.intervalmaps'} & set(sys.modules)
    assert not stray, f'{argv[0]} loaded {sorted(stray)}'
assert cli.main(['mc', *beta, '--window', '0.2:0.5', '--n', '30', '--N', '500', '--seed', '1']) == 0
assert 'negabeta.sampling' in sys.modules
assert 'negabeta.intervalmaps' not in sys.modules, 'mc loaded negabeta.intervalmaps'

# the sampler hashes the seed with the builtin SHA-256 and runs Philox on its own
stray = {'hashlib', 'numpy.random'} & set(sys.modules)
assert not stray, f'mc loaded {sorted(stray)}'
"""


# the samples and the digit engines take plain numbers: the sampler stands alone
_SAMPLER_ALONE = r"""
import sys
import negabeta.sampling
loaded = {m for m in sys.modules if m == 'negabeta' or m.startswith('negabeta.')}
assert loaded == {'negabeta', 'negabeta.sampling'}, f'negabeta.sampling loaded {sorted(loaded)}'
"""


def _run(code):
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)


def test_each_command_loads_only_its_modules():
    proc = _run(_CHECK)
    assert proc.returncode == 0, proc.stderr


def test_the_sampler_loads_no_other_module_of_the_package():
    proc = _run(_SAMPLER_ALONE)
    assert proc.returncode == 0, proc.stderr


def test_exports_resolve_to_their_home_objects():
    exported = [name for names in negabeta._EXPORTS.values() for name in names]
    assert negabeta.__all__ == exported and len(set(exported)) == len(exported)
    for module, names in negabeta._EXPORTS.items():
        home = importlib.import_module(f"negabeta.{module}")
        assert getattr(negabeta, module) is home
        for name in names:
            assert getattr(negabeta, name) is getattr(home, name), name
    star: dict = {}
    exec("from negabeta import *", star)
    assert set(star) - {"__builtins__"} == set(exported)
    assert "__all__" in dir(negabeta) and set(exported) <= set(dir(negabeta))
    assert not hasattr(negabeta, "nope")
