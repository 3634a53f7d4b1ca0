"""SHA-256 pins of the simple systems, the simple-root coefficients, the
highest roots, the five-cycle conjugators, the matrices of small Weyl
groups and the highest-root complements.

The simple-system digest was recorded from the implementation that
assembled the simple roots from unit coordinate vectors, before they
were written as root literals.

The coefficient, conjugator and matrix digests were recorded from the
implementation that built ambient matrices from an explicit complement
basis and its inverse; the coefficient map ``K = G^-1 S^T`` and
``I + (T - S) K`` must reproduce every value exactly.  The complement
digests were recorded from the implementation that split the complement
base into components by dot products of ``Fraction`` vectors, before it
went through the diagram layer.
"""

import hashlib

import pytest

from weylcalc import oracle, rewrite, weyl
from weylcalc.rootsys import _RANK_RANGE, build, format_vector

#: Every root system the benchmark builds.
SYSTEMS = (
    [("A", n) for n in range(1, 9)]
    + [("B", n) for n in range(2, 9)]
    + [("C", n) for n in range(2, 9)]
    + [("D", n) for n in range(4, 17)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
)


def digest(rows) -> str:
    """SHA-256 of one line per vector (or matrix row), entries as ``str``."""
    text = "".join(" ".join(str(c) for c in row) + "\n" for row in rows)
    return hashlib.sha256(text.encode()).hexdigest()


def coefficient_rows(system):
    """The simple coefficients of every root, then the highest root."""
    return [system.simple_coefficients(r) for r in system.roots] + [system.max_root()]


def matrix_rows(matrices):
    return [row for m in matrices for row in m]


COEFFICIENT_SHA256 = {
    "A1": "f6ce8e24b7ffdb9d4a48c737cf949430fc6490388175fc16c8e204b983382bf7",
    "A2": "f5e0b86ec6d553a6a9a8cdfce903bf55430677d45c055f6f308c9b462bf7a8e8",
    "A3": "7ece7e950bd721de4ea90192c8a4c49c574662166bf04046ad1a218f89bc38df",
    "A4": "5e1f076d840c40c54285f952dd3d9e3666b81858136edcd2768a8a4ce537b38b",
    "A5": "1de30445e788c0ba986cc1f8a27e65564a5f48df42e9688b46b74f09990d25de",
    "A6": "fd0b62014b34d38811062e7890a9a6617b9d666023ece97789a44c480490f081",
    "A7": "b7f595cb341916360c4e924adfb8f7784d381527ac6a000c5a79168b07940f88",
    "A8": "fe5dceda158e74e72bbebe103a7874a250e37f219d46bb75c6e065797101ecf8",
    "B2": "27b323d318a5b86fe04b7db333faa88f2262e493723ce66f98bae160e71461e2",
    "B3": "6bd96a72e6425c9d185d2870f864d4c90e08b66a25eeb3ee5719e48e2fe22429",
    "B4": "483d4fac52e3691c1e3b7fc5fd8b8fba2ad204af53f86fa9f791bdcada64a3a0",
    "B5": "8f6f24c69dd5405d9a5d7c7eb9d5d6470f02eccb18fa157a840d7bee0e156790",
    "B6": "ded8673aba934c0e6bed6f69c450d01877d12e02ce34026ce9371e678c7f79d8",
    "B7": "56737e9ab6bb2f7359e435c54c68e09254465968dfccf6c37a881fe1409abbbd",
    "B8": "e997828d44aba7454383bbdddade51d22cfdd0d6280fede2ea937743c318ecd6",
    "C2": "2d9f9ec1b09e00c0148c5a9a085e3b796b75b0e0b6dc915447cb2cee7b00b097",
    "C3": "6a34ceaad8cccb7ea5ab5e1bd93ab810fc628e532f3b0c5d8ab61f7a0b64994b",
    "C4": "a20d3e49d31eb43646daef7eb448fe80926ac4e4a3c7ea53def415c5dd163c8a",
    "C5": "7d60f2856f75c038e1836f5a97f459f081a95423b3d681b8bde4557c00cc2476",
    "C6": "0bb48fc1d33d13cf8c0c9904c551632ee88d208deef7878e25fdbb6e3852d168",
    "C7": "6d33c33840418e30a96eae0156140e645dd262b42d36473d7ab3c7d89319af06",
    "C8": "9adeea8d7e72c002233c045cb2b461533a5e79bf6002989dd3472e31d114c55f",
    "D4": "0988c8a7ee5a198dc5701715b2ca57a49953006a83181e9afca4b1d050b225ed",
    "D5": "f34b7e899c4364c394623540b5396e4a6c4959e84e0cffc8fd4bfca54d3395d6",
    "D6": "4a3a44785a63a1be75ffd71098753c0c8cf9c9817ec15e143c4c0fd9fa104877",
    "D7": "e0fbc71f4ba86bddd47d8ebf1dcffb4eaf649d9219f0c2b14c59f4ee00232a87",
    "D8": "d7564225fed7ddaef2d3d165604639bbfd0121c300386e016b65ff34297a2480",
    "D9": "8b961f9d53710ab5415b9b37a3ebfe63bd28ccdd6b2db570b404c00a29da81e5",
    "D10": "3441c89ebd93148de02415387c2cece3905f40e10cfa9cffc4bacf114ccda343",
    "D11": "da1f027814ebd1af0a1fd9c6f65b04c53513eb1c2b487c428ae2b450d75f93d3",
    "D12": "398fe8c17da7ae1dbdc144f0d93640731e136369862758e230f749898b97735b",
    "D13": "a5b9d388915026a0f3af62ea3d6118513eeab3d22a535ffce3ffe8590e0c3d0c",
    "D14": "2c9291cf2c0938a73940e15fc509d0c9ff3781235cb6e261ddb6db8fe3ef7d52",
    "D15": "f74843b45855e5242e7c88f368cb355e6444032f02c69e341f83ff089ffadd44",
    "D16": "75b2a6d5f85cf30a35e973a21848f87881ca81a03ea9cbf6224aed90e3640002",
    "E6": "e10cbb456bde3d392e2dea0cb7ac8dfde9acd3e2a923e37f3f4fcc6e2a8eec81",
    "E7": "ca962c2d11c7373c28549861d32a6c9296dded38e091294e3f7fd2e12f0a4862",
    "E8": "815d675db801f8ecf259da347727b5e2147194fa03ac3006a17ad32117ea196f",
    "F4": "7d9be279034b76223b47b6a0c1720b075b15a9e87ec74d38fb8feefa5d0f2d8b",
    "G2": "8167e44004bde6d35e7d4c9e848773667e7fce22a2aaab382abe8b89e393469a",
}

#: One line per buildable system, ``<name> <simple roots as literals>``,
#: the simple roots in their order (which fixes the class walk's
#: generator order).
SIMPLE_ROOTS_SHA256 = "c9951b95d6ed89a6f731bf8122b26ee08d271c6c504b72d0e23d792804d902bb"

CONJUGATOR_SHA256 = {
    1: "745d59e66abb325e4a91f1f4a589e0da4ddf5b3dc82c909edf371f33d082967e",
    2: "0b7de16be0aa1767ff3a476fa92ebeadfefcb38ee901055e0fb6312742e4e2d8",
    3: "77185bdc0f8930d82746c8ec9dec355d68a9ad2ad541b0f27bb610e653b76ac1",
    4: "c88e8dd1acc9de01197aaaba125006e71313a68186614eecb49550bfc5dca6b6",
}

GROUP_MATRIX_SHA256 = {
    "A3": "63050040ecb49a3118058aa4d30160c213fe18e9acbec633106612ebdfa23628",
    "B3": "966caa103e9a81c89f68e2889ab5d9f1afe576b16e13b773f0bd0387a7316217",
    "G2": "d1f92ca4401b99675af84fb1da6c96b49fc44589c535b154cc9fa0d8fc2644e9",
}

MAX_ROOT_COMPLEMENT_SHA256 = {
    "A1": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "A2": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "A3": "4fc93a7e3b47e4212e938e7565c56b87fea6951468f59b1fd19cc4c1d8343f22",
    "A4": "09d0e85fc483bcd80dc0d863b033e14450dff829a1959465b6cfad1bf1575b5d",
    "A5": "66ca42dd6c8e5078fb3f6b08d2c1391f9dbb66f308f798c33cab860793dffa2e",
    "A6": "c4634e95e28c7d4d21f60d5d02ecc907e0274eee8ad245b33677bf825f75707f",
    "A7": "f2eef778c8f0b01efd103083a81574c9d6babdd107f0d32741f775f747687805",
    "A8": "4052e30df2f4ace70e2b7074c0637d0198e793cd0d2d93aa1cef9db4f48a4a0d",
    "B2": "4fc93a7e3b47e4212e938e7565c56b87fea6951468f59b1fd19cc4c1d8343f22",
    "B3": "23190e1734345983ff957ab231cc66363bc3035108cb93eb24605b6b7a5c32f0",
    "B4": "ff6d26ff92d58cd7777dbcf1da0115dfba3d03a8ac152562e53c5b6a08254867",
    "B5": "c9991831116c222e0536bd23aa61c9d8b8e153052ea98a8c56a42c8a7b6fe50e",
    "B6": "c6acbf2fe0611eff954f9435bab693a22fc3c7439d5283672c742d5413b76586",
    "B7": "90b2788608542fd31a81782212164321a5fb02b244ccead8f3f6bf81158954b1",
    "B8": "f5d996e4d25c6a5d3dcd195624c238e9ff7320fb39710afa780b9f70d3d4b4f1",
    "C2": "4fc93a7e3b47e4212e938e7565c56b87fea6951468f59b1fd19cc4c1d8343f22",
    "C3": "9a66cad0c766cb805dadfcfdc06f3efed248914d70b1ca335e921c7cfcdf8a37",
    "C4": "6cc82c2de234e5129b3911843024ed4cf7114fc267af12bd84e397f34866fc23",
    "C5": "aa02ff1ae97dfec761b2542ff1ae990f359426f463f4649675647a5be0188d6a",
    "C6": "86049aa5444410b04cadb017ab420e8a27b16b3fb81c06e96b457308af621151",
    "C7": "fbe7bc61c5b17cd2c8055d8547dbb3dccc2934f7a636ae9f434680359e66196f",
    "C8": "ba302f3fceaebe6dfd581f55cb8b4729b2231f65b15312e66080dd286e16f684",
    "D4": "77de4a641ddac96987f9f6e5c96553236d86fef75b1251c52d15356048fabd9c",
    "D5": "2e8e14dbb74aa15b8bb105d25f1b5feae39fbcbe46729a6f44b96c1cc9bc5377",
    "D6": "ecc6f4cd64d793f3ecf1ed6587382bee8e8e0e544dd4ed979e00bbafb3a78785",
    "D7": "dd7862f39248666c1b71a02d413dcc4c7322e1a6faf7f54f16f1745389448f05",
    "D8": "4fcf6a59ee59e071f75dbf9284fc312e03ac9a9fa7fe6fb751006fa15386d197",
    "D9": "d2586b0c28274789c30a7d2433e18f24933342db5b31e897a9ba141b3a4b7d39",
    "D10": "83abb0a2eee9f1af1a09627954d94eb265ca9ed87a191b0252c1f1b88a3ee461",
    "D11": "c95f16bd7b81dcb5f6e4c8bf1086159ac9d864e64032a6c28422bf11b7d0e039",
    "D12": "f63a398ba11918cf35a738dd92c04c7c808a97e9849089eb88e0fc9e630ebb21",
    "D13": "312e788891de094ef4e7f796ec3b4c3d02acb6158fd28ab6b19a654aa1592f8f",
    "D14": "7fad182d6b8a8e146521ca17c82c8577b8291ef76699fcfc0b4990324aada624",
    "D15": "cde4fd39a4353a30bbe93fbf746ca2006efed0e2cb190f3eda1bf68f649f1c0a",
    "D16": "e7c9024a650a400be9a1843070272551f22827840518b0b9e7526d855cfb7be6",
    "E6": "f2eef778c8f0b01efd103083a81574c9d6babdd107f0d32741f775f747687805",
    "E7": "e02b0e14b146b9294de9e870c51f8b86974b897363aa71a70f74a57425e60b21",
    "E8": "4bad213660c11fa41d223d1df941725baeb1ec88095cff7b03ed845bc3fb8b94",
    "F4": "6cc82c2de234e5129b3911843024ed4cf7114fc267af12bd84e397f34866fc23",
    "G2": "4fc93a7e3b47e4212e938e7565c56b87fea6951468f59b1fd19cc4c1d8343f22",
}


@pytest.mark.parametrize("family,rank", SYSTEMS, ids=[f"{f}{n}" for f, n in SYSTEMS])
def test_simple_coefficients_and_max_root_are_pinned(family, rank):
    system = build(family, rank)
    assert digest(coefficient_rows(system)) == COEFFICIENT_SHA256[system.name()]


def test_simple_systems_are_pinned():
    systems = [build(family, rank) for family, (lo, hi) in _RANK_RANGE.items()
               for rank in range(lo, hi + 1)]
    assert len(systems) == 65
    rows = [[s.name()] + [format_vector(r) for r in s.simple_roots] for s in systems]
    assert digest(rows) == SIMPLE_ROOTS_SHA256


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_five_cycle_conjugators_are_pinned(r):
    conj = rewrite.five_cycle_classify(r).conjugator
    assert digest(conj) == CONJUGATOR_SHA256[r]


def group_perms(system):
    """Every element of W(system) as a root permutation, in breadth-first
    discovery order from the identity, right-multiplying by the simple
    reflections in simple-root order (the order the matrix pins fix)."""
    space = weyl.perm_space(system)
    gens = [space.reflection_perm(r) for r in system.simple_roots]
    found = [space.ident]
    seen = {space.ident}
    frontier = [space.ident]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = space.compose(p, g)
                if q not in seen:
                    seen.add(q)
                    found.append(q)
                    nxt.append(q)
        frontier = nxt
    return found


@pytest.mark.parametrize("name", ["A3", "B3", "G2"])
def test_group_matrices_are_pinned(name):
    system = build(name[0], int(name[1:]))
    perms = group_perms(system)
    assert len(perms) == oracle.weyl_group_order(system)
    space = weyl.perm_space(system)
    matrices = [space.matrix_of_perm(p) for p in perms]
    assert digest(matrix_rows(matrices)) == GROUP_MATRIX_SHA256[name]


@pytest.mark.parametrize("family,rank", SYSTEMS, ids=[f"{f}{n}" for f, n in SYSTEMS])
def test_max_root_complement_is_pinned(family, rank):
    system = build(family, rank)
    names = oracle.max_root_complement(system)
    assert digest([[name] for name in names]) == MAX_ROOT_COMPLEMENT_SHA256[system.name()]
