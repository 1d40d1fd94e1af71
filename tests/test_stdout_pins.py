"""Stdout bytes of ``cli.main`` pinned over a fixed argv list.

Each pin is (exit code, sha256 of stdout) and, for ``mesh``, the sha256 of
the OBJ it writes, so a change that moves one printed digit or one OBJ
byte fails the pin of the command that shows it.  Stderr is
left out: argparse's usage wording differs across Python versions.  The odd
mesh resolutions are the only ones whose grid has degenerate triangles.
"""

import contextlib
import hashlib
import io

import pytest

from oloid import cli

PINS = {
    'constants --radius 1 --tol 1e-9 --format text': (0, 'ef062a5f126b0b167da96cdbad9e3d4b040d6ea87105daec41a70c63ed4e8c9b'),
    'constants --radius 1 --tol 1e-12 --format text': (0, '9133254d88a52a51305f1f090451f26c38b6df908447bb1db1507f6b31c00798'),
    'constants --radius 1 --tol 1e-15 --format text': (0, '191cc13f4c3b4abebc9d9ac207fb3bc79c8b3f02b1cf1f1a713008327a45f25e'),
    'parallel --radius 1 --rho 0 --format text': (0, 'f92c1ab75e21999f2374738b3205bf344646dd4a6f1eb2bd2ef8a480960eea5e'),
    'parallel --radius 1 --rho 0.5 --format text': (0, '9d8c2a5e006101bb4cec6849b6604a7238e5c669e28b4e83ea13eb4694974608'),
    'parallel --radius 1 --rho 3 --format text': (0, 'ff937fcb72ef69011955888a099e0d9bafdca7df85274f00c9779063e9d44b5c'),
    'kinematic --pair ball-ball --radius 1 --format text': (0, '2d359ac3521f4492fc10ff1cd85edfd9740d13f2f25b49c076dfc09d109a38d1'),
    'kinematic --pair oloid-ball --radius 1 --format text': (0, 'e61e6cc489481480b65e92f22d9384968fbee75bef65695d01d7b65dff40adbf'),
    'kinematic --pair oloid-oloid --radius 1 --format text': (0, 'ddeaa85f3b3d97f012bcef3f3dd43e669d6c46643c6b1628060d0b57469d856a'),
    'constants --radius 0.37 --tol 1e-9 --format text': (0, '77f92817f1a27046fce2230478ae44accbdc77c9308a1fd8208cc11cf9f66c31'),
    'constants --radius 0.37 --tol 1e-12 --format text': (0, 'be08ef59a278d008366d5654f95398039187e3e04bf5350bcb31750dcf13255f'),
    'constants --radius 0.37 --tol 1e-15 --format text': (0, '641ddcb9fa100e508df7a816d4ac6416ee6b741bdd1a3a9966c8bf9b68d55cd5'),
    'parallel --radius 0.37 --rho 0 --format text': (0, 'f101338b6a8a1b4c0309b57f112dc597799eb7396aaf7233f8dbc2c1b6441386'),
    'parallel --radius 0.37 --rho 0.5 --format text': (0, '38619b65c79234cdc7b4509d87ec7745a18c4df52f226dc60e4823483c9bb935'),
    'parallel --radius 0.37 --rho 3 --format text': (0, 'ed682d5ab55323cc2a403468df5099041e7e8f892ac24d3fdf707cb67a4ddf5b'),
    'kinematic --pair ball-ball --radius 0.37 --format text': (0, '98bdc77834683e0b65215ecbdfb33a72e6afe59d3173122be20e612a0876f250'),
    'kinematic --pair oloid-ball --radius 0.37 --format text': (0, '282afae0c9b2ba7a889c19cff17a63fe9214292561d453c7e4274734502d6875'),
    'kinematic --pair oloid-oloid --radius 0.37 --format text': (0, '28e6491b70fd81c95b2a6267a4431245673f3dd69d7b8f10729131e2653c73e6'),
    'constants --radius 2.5 --tol 1e-9 --format text': (0, 'd1f40a00a98df68e7c23dbc24a96d5df4c3cb909ee11d2bbdeeb8112fc075b1c'),
    'constants --radius 2.5 --tol 1e-12 --format text': (0, '2c67d5e5f8e61d56843844187f8f48dba794369081634a995dae57f41d706d2b'),
    'constants --radius 2.5 --tol 1e-15 --format text': (0, '06dbb3fa0628d04b8ddeffa20e5a910d3cd5a949f5f61786fa00ba3c24912804'),
    'parallel --radius 2.5 --rho 0 --format text': (0, '3d2e07e7312e8291bb3764bc3bd41b32bf1ce5afc5f23687990a38e59ad8386a'),
    'parallel --radius 2.5 --rho 0.5 --format text': (0, '6ecdeaeb3de794312654c323878dd67b2d94b22e4907326293504499ed07c7ae'),
    'parallel --radius 2.5 --rho 3 --format text': (0, 'e2cbe3180dd06c5b5af10789ceff32798c3d148f2edbf9d06ce23b02a53c5736'),
    'kinematic --pair ball-ball --radius 2.5 --format text': (0, 'a3ea9069415a120d6dd19ee54d7d4e6c262a943eacf3a2e029393ea2a8edb706'),
    'kinematic --pair oloid-ball --radius 2.5 --format text': (0, 'db008506cb1fbc459273e93d00158911ddd61fbc06ca4d4952dce1d33c7f7244'),
    'kinematic --pair oloid-oloid --radius 2.5 --format text': (0, 'bd7a073e0c8a82f0bfbbc39721fb1a8d3a843db185e1a3978e703db19dee8781'),
    'constants --radius 1 --tol 1e-9 --format json': (0, '83e5c5fa18028ef307c4818a319e2ee5623265680d20eb70f8753b10c810c447'),
    'constants --radius 1 --tol 1e-12 --format json': (0, '637b657ed7fe8b54a3d056102106b882f0afe4d4f5268375ea909ae018b69671'),
    'constants --radius 1 --tol 1e-15 --format json': (0, '7c8141a19f3bda080c69b282e5526e2fb3fe99aaa77a4a425c8ea59e8382b4e4'),
    'parallel --radius 1 --rho 0 --format json': (0, '237dd9b36b18fa13d885462d50daa662fd649ce9cbfdf1ecf7213b3dc15067ff'),
    'parallel --radius 1 --rho 0.5 --format json': (0, 'af19dd1937fa9c8e64015a39345ad1e594c25b6c3d44ce048b828266b53b4d58'),
    'parallel --radius 1 --rho 3 --format json': (0, '258abb09dff863a7c43f578047a2d8b5bb61c70e4315c67b4fad8e1be8dfa614'),
    'kinematic --pair ball-ball --radius 1 --format json': (0, 'c5caae56071b07933e608717f49b1552c6c9f1b35694ec4e549f820422c8b60c'),
    'kinematic --pair oloid-ball --radius 1 --format json': (0, '848bf8cf0c6576d999e6f098ff8ad270d038906eb6db0fa9d129876d6e11dd14'),
    'kinematic --pair oloid-oloid --radius 1 --format json': (0, '46a36872bb8151bacd2f09d71bfc7c7e37de3a51809be3bdecbb6517476438ba'),
    'constants --radius 0.37 --tol 1e-9 --format json': (0, 'd1647d4a45cf57c70412c82a7545513e8fefab38eb703bdc14d926dd48e8da8a'),
    'constants --radius 0.37 --tol 1e-12 --format json': (0, '2754aa884e7b03f10149c6ba9537c79e5b891cac25b6668ac943b120ffc49ccd'),
    'constants --radius 0.37 --tol 1e-15 --format json': (0, 'c75121cab35e91b9b09a9571749c2ce185fb93c0ae04251721ee48d73809e6a0'),
    'parallel --radius 0.37 --rho 0 --format json': (0, '6a1420c6bae1ee03084b6ee743d853099ea629788390fe2f32dea1328866f0a1'),
    'parallel --radius 0.37 --rho 0.5 --format json': (0, 'e053ea99dd86fb5e8f3822dc63df38d939fd3878cf2e6b893dc725ab6595f1d3'),
    'parallel --radius 0.37 --rho 3 --format json': (0, '67df56860af5152f253ac23ee0d5ee0392976d5e5aff11800fd5d99294d200f5'),
    'kinematic --pair ball-ball --radius 0.37 --format json': (0, '3bd962f84957195163f62cb52b6ebc46087e63065f84bce314f83c6aeda0fc3e'),
    'kinematic --pair oloid-ball --radius 0.37 --format json': (0, 'dfc035bc3fb3c454105b7e174102d527c21b664b3bc7359c664276fcb0e5930b'),
    'kinematic --pair oloid-oloid --radius 0.37 --format json': (0, 'c94597ee7745738f779f43776e5e46f242f80ca2fcf89531f50dd9e4d997e62b'),
    'constants --radius 2.5 --tol 1e-9 --format json': (0, '8b538e17573d8a99b852c69352570d3aafb1617ccefede5add0b5dccdcc86df6'),
    'constants --radius 2.5 --tol 1e-12 --format json': (0, '6e136dd1a3dcf42b060cc0f2c24cd09f3d0d7840273c1f36d8a7bce1b79a8eed'),
    'constants --radius 2.5 --tol 1e-15 --format json': (0, 'e53f8f1906f94203f1b539c61c2bfa578d6f7ec24fbf30ef00d18d668107f3d3'),
    'parallel --radius 2.5 --rho 0 --format json': (0, '491ff672747da7ad29ec86d54700d041325e8978da64652766991f73d6319117'),
    'parallel --radius 2.5 --rho 0.5 --format json': (0, '6f1a267811173c753aa0c2bcb9628a6ae94df039a2fee3af6d5f75c6fc0f47df'),
    'parallel --radius 2.5 --rho 3 --format json': (0, '699fa0c6baea863beafc30f04a172988538a2a30e36b5c5bf1cb9ad3c63e878e'),
    'kinematic --pair ball-ball --radius 2.5 --format json': (0, 'b38aabd981f6a4b824590d1eb7c74aad66e4dad3cb04a09072b00bbfe639fa50'),
    'kinematic --pair oloid-ball --radius 2.5 --format json': (0, '07c84227f5de6b9b74414138dc0d3a2346907d2c0389c1bafec7a6a238245f18'),
    'kinematic --pair oloid-oloid --radius 2.5 --format json': (0, '8d7b6fba904c1c9b8cc4515a293a7ff63582cd7d403440473cb217df1092e526'),
    'constants --radius 1 --tol 1e-9 --format csv': (0, 'd9b67b47d73d06e052d344336a57ad51b165f4a263fe0ed93e2019c640a95ba7'),
    'constants --radius 1 --tol 1e-12 --format csv': (0, 'e86bb653b9034bdaa93784a31571d4957549e56dfa4eded1a1d9170553321d84'),
    'constants --radius 1 --tol 1e-15 --format csv': (0, 'd590e9f433311e3c60c031e4d864f61b5f569d0abaa90b4600a7fb666c905ed6'),
    'parallel --radius 1 --rho 0 --format csv': (0, '0be392af5bf708c1499b243d18212e20a68a21431f9a403b6f556fb1e819aa27'),
    'parallel --radius 1 --rho 0.5 --format csv': (0, '8493831d648dd5e8498ab2bcd40a3077376a6eb19347875f5e35056e3f11ebaa'),
    'parallel --radius 1 --rho 3 --format csv': (0, '53fb57bd8671246993742dffb490c4289738f624b4b29991e315721ba44a9a4e'),
    'kinematic --pair ball-ball --radius 1 --format csv': (0, '525ebe30de979289448246ad123f5cef3966181e0b6b6b87b0cb5d9073c72141'),
    'kinematic --pair oloid-ball --radius 1 --format csv': (0, '3ed5475bdcb051a9119454dc9d6afebc659b90ae69ccff0c9f6fd7383a5222b8'),
    'kinematic --pair oloid-oloid --radius 1 --format csv': (0, '7dde5ef59823681fbd084ef8af96eb97a7aca92e50ad16a395ed8bd686707912'),
    'constants --radius 0.37 --tol 1e-9 --format csv': (0, '42e22100605229c533af06c336eb08ce19fe06fb0a1a658e0b8d22d52b7d682f'),
    'constants --radius 0.37 --tol 1e-12 --format csv': (0, '3650bf332c7e3d3e9d696eed0d44f75f8fce454ac82030de48cd32255e864acb'),
    'constants --radius 0.37 --tol 1e-15 --format csv': (0, '659de0e9f54fc9c38939cd05a71be090f486cbe5f99e0b794eaf8625a4f1a75c'),
    'parallel --radius 0.37 --rho 0 --format csv': (0, '15730edb6d90b5ff20cb042db6db9c968a03714e5306b58aaf468a7b0f606f41'),
    'parallel --radius 0.37 --rho 0.5 --format csv': (0, '408cebfebca714cff84103ce7a47d1a11d0453883c4e7f1c2b1005a6f95b76b2'),
    'parallel --radius 0.37 --rho 3 --format csv': (0, '5d0916deab0f022d23e2c6f4afa851b9a7f537f22f65e6506c6dc6a773095b03'),
    'kinematic --pair ball-ball --radius 0.37 --format csv': (0, '1c989258cde4b92bbef2b1fbb84d9a7afa75a72f439d037de2e4c4bc81447144'),
    'kinematic --pair oloid-ball --radius 0.37 --format csv': (0, '33a3dd5a0dbd6aed510bd21c21126f31fc329dc92d880e53b25d7b44bd1fb093'),
    'kinematic --pair oloid-oloid --radius 0.37 --format csv': (0, '7e341a64fdc075e5da13e7d9563ddd006f2bb7bd597cf2b6910725616ace9972'),
    'constants --radius 2.5 --tol 1e-9 --format csv': (0, 'c23403a26c10ac3dfb74877056d3782844d5c568effde942c192e19b9ccc2319'),
    'constants --radius 2.5 --tol 1e-12 --format csv': (0, 'c78bdc3f3550115c683ff287db8e4b619f312657316003d77faa23397e0dc1d7'),
    'constants --radius 2.5 --tol 1e-15 --format csv': (0, '051964299f976c5618b417563e4d0f3261c7ac36b8797642f540771d4beb85be'),
    'parallel --radius 2.5 --rho 0 --format csv': (0, 'f9baa3c63e93166e83248b6bbc2a26ce78c0bf8bfa5dc51187afdc569cf63561'),
    'parallel --radius 2.5 --rho 0.5 --format csv': (0, '6b8e7c5b3da9e68a3d0ed2ff6b74dc91e24d1c34b946201676f49e6a5be276c4'),
    'parallel --radius 2.5 --rho 3 --format csv': (0, '7218cc3ad61759f832acbbf349bad5144040276587bbe4d1f0e21f72ccf56407'),
    'kinematic --pair ball-ball --radius 2.5 --format csv': (0, '7233069a98e6fae4324432e1a0ed0ea87b16334f6ab7fee5318338280cea47d3'),
    'kinematic --pair oloid-ball --radius 2.5 --format csv': (0, 'e87a1db484baebe240445709d4f914e828b6ae0582699bf1e26ee42d73fbec5f'),
    'kinematic --pair oloid-oloid --radius 2.5 --format csv': (0, '7235aeaf5bc170a0cca80861d5ae199eb539501f8f8c3813dec3f51f598eb6c9'),
    'kinematic --pair ball-ball --mc-samples 100000 --seed 7': (0, 'e4c5c637116dfd3cc5ab06890cdbbff36a09ff20f39a9a7137b7b9f78932ad5f'),
    'mesh --resolution 2': (0, 'db54e18f71da2bec63faac9ff44a54645112dcf39e0a81bab936d6d8f273edfa', 'b28aac3cf74247c738b9cacc77d6f834f8ee17d4c41951f1c4171689361327da'),
    'mesh --resolution 3': (0, '5e9473208dfa95ac5c6932f9a4ca8a72983a648396de15aeec3f421a71587cb1', '820172403ae04fbf6008208cc4cf3a21a94109a5e5504cc7dc9c98411b5d73ab'),
    'mesh --resolution 5': (0, '7dc34113fccb5808978883c0c145fe99019172e3801c606ded5c806327a416e1', '8e6157f70fc8d99140b3578bd1287fd111a1dd5f1a9aacde726de1548dbb5cbd'),
    'mesh --resolution 8': (0, '38c929204c15a57679b0d134a30636d692fb8d9656fd03c2efa0a401f9d984c8', 'b122bfaa44da066b35e785d76fab84d5d1df0f9078021e2bf65102fc3ff7acd6'),
    'mesh --resolution 33': (0, 'f5ea899017b069b190644c6425cc082d685484d96d34e6bcd05d7fbac94bb87f', '86aeb43a3afea680909474d12402e4e669fd5cad1c2e3ca175cdf798c2607b78'),
    'mesh --resolution 64': (0, '22364c0b142b7dfe5a93ef74c159a28abcaf87d9b05d348cf7bc2c03306cf398', 'dea5473363039d63dec047adffe87b2fbd03724a651fa2ef6bc190181966c3cb'),
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("line", list(PINS))
def test_stdout_bytes_are_pinned(line, tmp_path):
    argv = line.split()
    obj = tmp_path / "pinned.obj"
    if argv[0] == "mesh":
        argv += ["--out", str(obj)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    got = (code, _sha256(out.getvalue().encode()))
    if argv[0] == "mesh":
        got += (_sha256(obj.read_bytes()) if obj.exists() else None,)
    assert got == PINS[line]
