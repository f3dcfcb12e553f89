"""Byte-for-byte pins of the CLI: the SHA-256 of stdout and the exit code of
``validate``, ``e2``, ``check --all``, ``slopes``, ``polygons`` and
``report`` in text and JSON, and of ``scenario``, on every builtin and
``ngon:20``; and of ``polygons`` in calculator mode (``--slopes`` and
``--jumps``) on thirds and sixths, negative slopes, a dominance failure, an
endpoint mismatch and the empty input, whose slopes are not all integers or
halves as every builtin's are.  A change to the engine that is meant to
leave every output as it is must leave this table as it is.
"""

import hashlib

import pytest

from ssweight.cli import main

# argv -> (sha256 of stdout, exit code)
GOLDEN = {
    "check --all --scenario cellular:1,1 --format json":
        ("5798dd5b3c3f0365b5c28227f4d32166a43565cda1fdadbb9e3ae20a255c9219", 0),
    "check --all --scenario cellular:1,1 --format text":
        ("1e68cda600f463ff32f807dd53b031a2478228df9942c0cf0353fda6b4283e2b", 0),
    "check --all --scenario cellular:1,2,1 --format json":
        ("005cd7a97ade84d18cfaf541f88a5d4de65df3c39ad8383f171f64d852a1ab31", 0),
    "check --all --scenario cellular:1,2,1 --format text":
        ("641a3cf27416e580601c743c19830df1ca8be741d8d00d69e1af4d871827f8a7", 0),
    "check --all --scenario cellular:1,3,3,1 --format json":
        ("e42669375feed0e940078e051be7af3148b4c17fe7dbd96479a0e0070f5b1d9d", 0),
    "check --all --scenario cellular:1,3,3,1 --format text":
        ("f07ecd1711a98254d7fb0e3bbd1b7cbb24394955e3a9ed0ae3d3024c2bb0bb8c", 0),
    "check --all --scenario elliptic_stratum --format json":
        ("dd6deb782a31346bbb1a8ef951712b11920ee9e44411cacebb68da86d8b51ce4", 0),
    "check --all --scenario elliptic_stratum --format text":
        ("b2a0ddf58fc7b06069dcab8ac6f7752eedbf7ee9613105cd56c9e2960551e06c", 0),
    "check --all --scenario good_reduction_pn:1 --format json":
        ("7d76668fe29a0918bba525b0f05893a07e560938432f5b76d96fc5a708a033e9", 0),
    "check --all --scenario good_reduction_pn:1 --format text":
        ("1e68cda600f463ff32f807dd53b031a2478228df9942c0cf0353fda6b4283e2b", 0),
    "check --all --scenario good_reduction_pn:2 --format json":
        ("006f553437b3d20d9fbe1291fd930c95d4c6dfe6964d1cc32450dd480a06ec2e", 0),
    "check --all --scenario good_reduction_pn:2 --format text":
        ("935ebee84952ce70a06388fe84578866ac39e321bfe49ccbff02a4073a694737", 0),
    "check --all --scenario good_reduction_pn:3 --format json":
        ("7da65abf84480c009aa33f2834392524265a2aad8a5f56d635fb875ddcb396dd", 0),
    "check --all --scenario good_reduction_pn:3 --format text":
        ("84159d2bc8dcbf1cd371fa028600a724250f06a01da59da4cf454479eb7437fa", 0),
    "check --all --scenario ngon:20 --format json":
        ("bc4168065436554e3a1f46ca863e1c0a94b9f1aa24f0075c85315cc610d3f276", 0),
    "check --all --scenario ngon:20 --format text":
        ("00ab646e073026feefc02d5dbf3032d41856d0afef1d0ff1238d1a367e71e986", 0),
    "check --all --scenario ngon:3 --format json":
        ("31e8ba133c7996e5fa4e5fc351ae0b043b778179ed226c3d0a9c1bca933a169d", 0),
    "check --all --scenario ngon:3 --format text":
        ("00ab646e073026feefc02d5dbf3032d41856d0afef1d0ff1238d1a367e71e986", 0),
    "check --all --scenario ngon:5 --format json":
        ("7d2052c62fc313c5c430122110f820875956c3b7bde8a7e5d1da256fd34da6a6", 0),
    "check --all --scenario ngon:5 --format text":
        ("00ab646e073026feefc02d5dbf3032d41856d0afef1d0ff1238d1a367e71e986", 0),
    "check --all --scenario ngon_x_p1:3 --format json":
        ("ffddc468e35fe87561fcd4c6379bb3f5fe545ede9560cee3f07dca2f54bbb7e9", 0),
    "check --all --scenario ngon_x_p1:3 --format text":
        ("2e0103e52de7de27453daac8d241ae0767884080a945b862cf98666cb5f024ec", 0),
    "check --all --scenario tetrahedron --format json":
        ("1e4dbd29bc78cf83035d399bdc73ffcb94e112c3cf8636e1aefe30812747dcfb", 0),
    "check --all --scenario tetrahedron --format text":
        ("50c7fbe827a2223818f0e9d54e3ac4532b3ffb845f106a4d0554fba9a2d8fee2", 0),
    "e2 --scenario cellular:1,1 --format json":
        ("cc9a0798463ce4870972c5c1372e70f721fd026ebd6b1a66e3c856b8f5fdfef9", 0),
    "e2 --scenario cellular:1,1 --format text":
        ("9dfd21d0bf62341604d284b58624f6822d1f0df01317ae778fa1f9e040f02d78", 0),
    "e2 --scenario cellular:1,2,1 --format json":
        ("ccf71ea77e06a81a9a557b3923d716fa3ace434d240d01c86317587ba43633a4", 0),
    "e2 --scenario cellular:1,2,1 --format text":
        ("3df98d047b37bbd8cadf63b40b91ab86aac480f539fd9911cedd6257bbef1663", 0),
    "e2 --scenario cellular:1,3,3,1 --format json":
        ("0045291d1521a9b6b532b1b71af588f2141bf22c26191d462ced10e87e606891", 0),
    "e2 --scenario cellular:1,3,3,1 --format text":
        ("d37669134c66f19ea7c051ecb7bd5755bb89efc8907589e72988d26c8f9f88cd", 0),
    "e2 --scenario elliptic_stratum --format json":
        ("3f75e53a0d5b2c72131728f1574b4193d14847364e9a3f64d31b57c7d68aa87a", 0),
    "e2 --scenario elliptic_stratum --format text":
        ("e06ba6a794c0c0f1490922fbbfc3acd2cbacd4be962beb0d6824f455530f39ce", 0),
    "e2 --scenario good_reduction_pn:1 --format json":
        ("8f0b6280f728aff725e21dcd402a524d45e3442fcb3585517235365ab40e3c10", 0),
    "e2 --scenario good_reduction_pn:1 --format text":
        ("b446e621a7e9e25848b524c3b70a49d605f637628f798f0fce774ee4e3781d57", 0),
    "e2 --scenario good_reduction_pn:2 --format json":
        ("498b6eb738a597443ea8c50b06eb1770e58dbcd8fe422b7f203ac7b6e6718ee1", 0),
    "e2 --scenario good_reduction_pn:2 --format text":
        ("11b11ae72b58c4fe493f5a6d90aa9b24139c8a56381f9d5a6024c26892b9f0d4", 0),
    "e2 --scenario good_reduction_pn:3 --format json":
        ("f3e6e3edbf9262be5da85b9053c9092f069090f733869b9a41578d831071f10d", 0),
    "e2 --scenario good_reduction_pn:3 --format text":
        ("c58c949309e559a73fa1adbc868f03c547e0614825d7d845437ffb82abd41d40", 0),
    "e2 --scenario ngon:20 --format json":
        ("9dfea90c0e6bd694a987edc595f3c1e9c977b2d0e67a73be6f7816d55b834a08", 0),
    "e2 --scenario ngon:20 --format text":
        ("ed3a1a9898c9e826372ad415a41b088ca45cb020961513ee0f4bc2d391e3a684", 0),
    "e2 --scenario ngon:3 --format json":
        ("1ccae296b9477ec571179839dc2b4f691cf57c7b87e9cc216ccaecf8e6e98aec", 0),
    "e2 --scenario ngon:3 --format text":
        ("f4f9e761ff3508ccdd2af3511814d79dcd161cbde9f618cfa330cb81a168459e", 0),
    "e2 --scenario ngon:5 --format json":
        ("89534e3f37044b1c443f677597a4999f680f5ec9a7e961c32e17073503cf2bdc", 0),
    "e2 --scenario ngon:5 --format text":
        ("2914da63fbcb64187305a0cae264abec9b76fdcd94be303bc9891d0dad6efa57", 0),
    "e2 --scenario ngon_x_p1:3 --format json":
        ("847ad455cd4fedaa0d730c818f0cd5949459585e9c6dcb4d13adca2dc7ad1e8c", 0),
    "e2 --scenario ngon_x_p1:3 --format text":
        ("b407718eb208e9c5d72523f1334390c42ae9429db9184788620baafc8d0ca91f", 0),
    "e2 --scenario tetrahedron --format json":
        ("98ec5efb6eded28f20c36a993ebc397bb1340c416c3c27c221369fbc6a9cd354", 0),
    "e2 --scenario tetrahedron --format text":
        ("163369135dd64ab777ffd574ba14340c92480ae8c4f5ad737312fafba45086f8", 0),
    "polygons --scenario cellular:1,1 --format json":
        ("20e05fa1b73055f8538bd86e54a21317c90c05a18d45712f525ccc2eb3ec3c1b", 0),
    "polygons --scenario cellular:1,1 --format text":
        ("7570665d84fce68f957dcb91d76dd260780730ce8d0a83c0326066fe4a26276f", 0),
    "polygons --scenario cellular:1,2,1 --format json":
        ("c50ce1a1622ff21a571bc756e9e19b4b202a3ef71d777e0b221218c085de9cb4", 0),
    "polygons --scenario cellular:1,2,1 --format text":
        ("ee41ba6cbb8d8fd641b335a0ca81f8f34704c9088884e8a3fec4b8ef2c473622", 0),
    "polygons --scenario cellular:1,3,3,1 --format json":
        ("db0ded7d002db5ba058873598985c6d4851cd5c69779fc19159e2b7752dca4c7", 0),
    "polygons --scenario cellular:1,3,3,1 --format text":
        ("e73786ecd038edfa5530f45bbaea90b2903dd15a08474d49691c8fd9aac7c263", 0),
    "polygons --scenario elliptic_stratum --format json":
        ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 2),
    "polygons --scenario elliptic_stratum --format text":
        ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 2),
    "polygons --scenario good_reduction_pn:1 --format json":
        ("084005206d41696be289b2f36fecf8bae0e0b5d6244bfcc04b3bdc8fc907ddd5", 0),
    "polygons --scenario good_reduction_pn:1 --format text":
        ("7570665d84fce68f957dcb91d76dd260780730ce8d0a83c0326066fe4a26276f", 0),
    "polygons --scenario good_reduction_pn:2 --format json":
        ("b7d2accfdfbb9628dd6b3891abc94900d69fab7b9491f88e949a9d84cef02b23", 0),
    "polygons --scenario good_reduction_pn:2 --format text":
        ("7432a9fc00f5d7c8b49aa3e822bbf45315f513fb3c81d5329f5f9cc476dffa92", 0),
    "polygons --scenario good_reduction_pn:3 --format json":
        ("4236c129806be29a536ef2848a23ac1d1f8e0a063bd00fc8339bd25ee1043a29", 0),
    "polygons --scenario good_reduction_pn:3 --format text":
        ("f5b03f5c9835d2a4ef07044642a10c9cf131d58012b2863a2ce14740b4cf6865", 0),
    "polygons --scenario ngon:20 --format json":
        ("339f1bc382b8ece5c5d7d1b1b80dc4cdb9e47f355f536e27f838ed42a9d68eaf", 0),
    "polygons --scenario ngon:20 --format text":
        ("7b6661a402af6b223905292ba3590116bb4dafd8aebb8aaf7b965252b70d8890", 0),
    "polygons --scenario ngon:3 --format json":
        ("e2fe5e2b735ac642db5f144db109b3dd9cacfe5758491dfb7c716ca5c843c865", 0),
    "polygons --scenario ngon:3 --format text":
        ("7b6661a402af6b223905292ba3590116bb4dafd8aebb8aaf7b965252b70d8890", 0),
    "polygons --scenario ngon:5 --format json":
        ("07189182d02e675b7e5a75fed6f70b523f1f1a24c8509c1f9f47e35be388453b", 0),
    "polygons --scenario ngon:5 --format text":
        ("7b6661a402af6b223905292ba3590116bb4dafd8aebb8aaf7b965252b70d8890", 0),
    "polygons --scenario ngon_x_p1:3 --format json":
        ("4bc9e6c0124816ae7b4c061a8bb1e573e09ee397460c8921b7f145a75958c860", 0),
    "polygons --scenario ngon_x_p1:3 --format text":
        ("5b3df87307d3343e2137103fd1b1aa84d451bff315b21ed71026440a6186098e", 0),
    "polygons --scenario tetrahedron --format json":
        ("1d145e127540a64584d18c2d7e844b60682feffd0cb28cc35f1883b5883e43a3", 0),
    "polygons --scenario tetrahedron --format text":
        ("280e982c0cf551fbd3835fc792c02062a87847836d2226145b691e6367c493e0", 0),
    "polygons --slopes 0,1/3,1/2,1/2,2/3,1 --jumps 0,0,1,1,1,1 --format json":
        ("50201b5315662159a614ae4cb0cd468e20c90f9822b58210ba418d47fda9b227", 1),
    "polygons --slopes 0,1/3,1/2,1/2,2/3,1 --jumps 0,0,1,1,1,1 --format text":
        ("a8276614a99ea9686611dfcaee2b7692cac1296ea2ae5600bb470f615e7db01a", 1),
    "polygons --slopes=-1,3 --jumps=-1,3 --format json":
        ("c70fcf9647eff627e7f6d5eda7d1c1b0ef60c6799704cb44f9cadcc936fb192d", 0),
    "polygons --slopes=-1,3 --jumps=-1,3 --format text":
        ("94560c3c7b52005595b04544271d444b10860cf4d973fa0f6a09c0ad8fff864b", 0),
    "polygons --slopes=-1/3,-1/6,3/2 --jumps=-1,0,2 --format json":
        ("cdb357324c46de63ce53874839e9d8a37f233d0650aa35cde4cc7dc4dcd2f693", 0),
    "polygons --slopes=-1/3,-1/6,3/2 --jumps=-1,0,2 --format text":
        ("4366aba711f926488ec4188552b1850758c455cd985c1919be4a57ccceafd95b", 0),
    "polygons --slopes 1/4,3/4,2 --jumps 1,1,1 --format json":
        ("70411da1d7a92333ae8c170afe013d6d38c9a4d8e980b5b2cd8794031f5d4cbc", 1),
    "polygons --slopes 1/4,3/4,2 --jumps 1,1,1 --format text":
        ("a266beb0990940b62b1402cafcd5c2369bf467429728befe6e5b7698d4f9d1ae", 1),
    "polygons --slopes 1/2,1/2 --jumps 0,0 --format json":
        ("f53ea39942e045032d895f10f5047344e2ff7bceb8eec0ccf3f56376ad796c77", 1),
    "polygons --slopes 1/2,1/2 --jumps 0,0 --format text":
        ("03e70be3f4d2ddfaac820b4d8d04e95d1488d32c72bf7b53404bca1eb803f84e", 1),
    "polygons --slopes= --jumps= --format json":
        ("d65bbe6366cf28f47d4ee18a7853ffff1fc63e7bb929b33ce1cf00031b283893", 0),
    "polygons --slopes= --jumps= --format text":
        ("14c0aec271325ce364a36c8e23b23d71e76338c69c222b8448044cfbf19cac2c", 0),
    "report --scenario cellular:1,1 --format json":
        ("e324f752e9b463c11fd6a32229537b9dd30e9049741c13907c66c1a116a1a652", 0),
    "report --scenario cellular:1,1 --format text":
        ("0d548d1771474f161ffbdd482190fdf9788429add7be4d0cf9532be17473459f", 0),
    "report --scenario cellular:1,2,1 --format json":
        ("3ad80cfada727aaa52bbceb986690974c948b8d7daea50aa540ea36bce062e6a", 0),
    "report --scenario cellular:1,2,1 --format text":
        ("ef2a0fd23f23b82ce240ac8a5cf3ab291e1c0b56e8f091dca46975cb6855c70d", 0),
    "report --scenario cellular:1,3,3,1 --format json":
        ("c3046281b77e85431a0adfdd14fff636f88b33736fe780dba1b70dd85952d27e", 0),
    "report --scenario cellular:1,3,3,1 --format text":
        ("e85eb4d21b66e1c1690502061f53b73f4a74246b51ff8afa86826a02fc1665cf", 0),
    "report --scenario elliptic_stratum --format json":
        ("9dcf420fb8f45e257faf8d2184f24ec31d9fee36105c1b22b9879e14d88b05c5", 0),
    "report --scenario elliptic_stratum --format text":
        ("c9a4afde525df97f710c51494e3f648707983fdccb01da4a63d9965236355d3a", 0),
    "report --scenario good_reduction_pn:1 --format json":
        ("e2577245f4db2461edef959939b124aef3ae5ae5491345ac85e37be93eefa231", 0),
    "report --scenario good_reduction_pn:1 --format text":
        ("c75d1f6148e36fb680b2711f4acb9e3146f957d66d46baea0a3acc2f9320e791", 0),
    "report --scenario good_reduction_pn:2 --format json":
        ("c15276f0a87f9dadce29fe3e38dc501c218cb329339b6026ddb512260953776d", 0),
    "report --scenario good_reduction_pn:2 --format text":
        ("49f4ab6c9677ae84c816a7c03bd7d3b17cebb089618aa645a8e76de82e6f6028", 0),
    "report --scenario good_reduction_pn:3 --format json":
        ("872461bc896232bbe5cc17aa022987eec4df78e776e61a73c70a85123759d368", 0),
    "report --scenario good_reduction_pn:3 --format text":
        ("864ac2b746a3b64d01ca0ce98e4f641d8c2f760ea7c91787182797457d90a104", 0),
    "report --scenario ngon:20 --format json":
        ("7ea820ac387edf9bdba82d03b05d869167f36775102c5913bb319ccb3bc5832b", 0),
    "report --scenario ngon:20 --format text":
        ("4d22dc3afb76cddfd73298e033911c058d06d3cfceb55e48558dda20cd6c99b8", 0),
    "report --scenario ngon:3 --format json":
        ("1708ff70824f144576788f57416c4fb39338c8a5b1272c52f7a59879b7fe9072", 0),
    "report --scenario ngon:3 --format text":
        ("f1c966bf8b61a61cba6e602fbcc233e87b1517516ad6a91c894a287083889e05", 0),
    "report --scenario ngon:5 --format json":
        ("cee975823641c3450ce12d11ead6e0f5f97a1464f8b2a7b115b14e74250ef980", 0),
    "report --scenario ngon:5 --format text":
        ("3d06c246347e11e5905ee9ac85f083832c1126a335b1632fdfd8a35b752d678b", 0),
    "report --scenario ngon_x_p1:3 --format json":
        ("a9a824433ae1a1c3c5beb07cc99fa4d092d4700b8f04abb69722b24e640fa80d", 0),
    "report --scenario ngon_x_p1:3 --format text":
        ("6cedc055e69cd1c168de6546795e2aa4d87a8b3af6ae4eb301247ca61a663efa", 0),
    "report --scenario tetrahedron --format json":
        ("c73ada3a723c98e971d0617d3cbccb54bd2bf0aed1da94be501a56ac996db76f", 0),
    "report --scenario tetrahedron --format text":
        ("675b1165a78f4052e3cd2acca40f65bf436494635d5e6837c58d98c14d2f7263", 0),
    "scenario cellular:1,1":
        ("a7e853de1efef8352a57060605c7df1a8f338dde073753c2b988e02a776e1782", 0),
    "scenario cellular:1,2,1":
        ("9bc97ef918c8ecc72ce6817d597b1dd3ca8eb3409c258ff420bf8c137a9f344f", 0),
    "scenario cellular:1,3,3,1":
        ("334dbbbfd4f755f5f1775af9722dfe48ae82cae77fa083a8666e4e7a0ced9c14", 0),
    "scenario elliptic_stratum":
        ("aedc41e7739125b7adefc25a52f66aac719da9bb57343acc6ebe2a431955b41d", 0),
    "scenario good_reduction_pn:1":
        ("15382ab2abcc23e90329071795519e9e723da601a946cbf42ded3177897b6081", 0),
    "scenario good_reduction_pn:2":
        ("b6a95e341efa2e00b1a8deccf7a96b288465e2200ef72069d9ab91ddaf34c95a", 0),
    "scenario good_reduction_pn:3":
        ("c0ae509e35f01b4e5e3ca1b99411afb9dfb6fea38c9e8b78f6e093c2ce78db14", 0),
    "scenario ngon:20":
        ("1d0a85be1a5db71652b5ddc61ec77911e017a8e49b0434b0c33ef18cdc1083a4", 0),
    "scenario ngon:3":
        ("30f72b6f4116a263a0423002cb8c3cf789869ea71ec2e6a2c1baa238daa29adf", 0),
    "scenario ngon:5":
        ("75c70ba4cc8d5c950d2fa4bc55d236921dfcf8594e3b1e4314460c8b68316f43", 0),
    "scenario ngon_x_p1:3":
        ("478daa444156344d51fe88d0c3294445df7bf85640e83ab5e22bfac63b8810b8", 0),
    "scenario tetrahedron":
        ("0b9c7aac540eea2c06d2c22e9050af373201b6f7305d31b4f4173f9a69c039db", 0),
    "slopes --scenario cellular:1,1 --format json":
        ("f8db580b46fe986441da51b414ba196c7266f6870a7bb483169d284d830e8ed1", 0),
    "slopes --scenario cellular:1,1 --format text":
        ("fecd45ebc5ad92ccbc2e0babda8fb8026b40adeb12e488e735ffecd5f1ffe322", 0),
    "slopes --scenario cellular:1,2,1 --format json":
        ("fc0d0de36e1a30e8195dd4c899a5ae514c3e2781a246ff61418cdbb0b2dc50b1", 0),
    "slopes --scenario cellular:1,2,1 --format text":
        ("4e8ebdc9e24591a253a32e70c56290b8c799142872ef6d1505f99965fc5782df", 0),
    "slopes --scenario cellular:1,3,3,1 --format json":
        ("23ec7d41d624b33b5bdc6d71e2167e0215c2d393c4ecfe7f9d4a43af703f03e6", 0),
    "slopes --scenario cellular:1,3,3,1 --format text":
        ("b9c73ab412d4819182d15d5547913003d7cbc47b7fc2c1299a1cda1873dc0cc9", 0),
    "slopes --scenario elliptic_stratum --format json":
        ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 2),
    "slopes --scenario elliptic_stratum --format text":
        ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 2),
    "slopes --scenario good_reduction_pn:1 --format json":
        ("3154b45517814b9c5cacb355992b7af0e5c4bb1b5eb631017df9208f3a03419d", 0),
    "slopes --scenario good_reduction_pn:1 --format text":
        ("fecd45ebc5ad92ccbc2e0babda8fb8026b40adeb12e488e735ffecd5f1ffe322", 0),
    "slopes --scenario good_reduction_pn:2 --format json":
        ("ff82537f9d82de9388c8b88470914378c61d99807f43b80476b873888cf2a243", 0),
    "slopes --scenario good_reduction_pn:2 --format text":
        ("2f9189c5a132134144554390c2e2fbb1387ef4e6b5b84a45243f1ae937f8876e", 0),
    "slopes --scenario good_reduction_pn:3 --format json":
        ("45913cb9ebedf4f53b73355c73ce586aa1fdb2814849436505fdc07f33b41850", 0),
    "slopes --scenario good_reduction_pn:3 --format text":
        ("e84a7616b2bdc9765feb38cc1b0de214782e8ff62f87a66cca4acb540fc39866", 0),
    "slopes --scenario ngon:20 --format json":
        ("3f6b3076a61626fa44b287793beb775b6c2794319eda79ced795abcce9141977", 0),
    "slopes --scenario ngon:20 --format text":
        ("6db20daaa8049521fe200010ef2da3d77181df2eca18050f63627d70af223045", 0),
    "slopes --scenario ngon:3 --format json":
        ("6df227c8ca659879c1a767e13bc7d3fcc3ea9fa6d9c938806cec359dfe43623b", 0),
    "slopes --scenario ngon:3 --format text":
        ("6db20daaa8049521fe200010ef2da3d77181df2eca18050f63627d70af223045", 0),
    "slopes --scenario ngon:5 --format json":
        ("f9c30782c00281ab5cd21a46556547503175288510908c65db9b5357a1c0c11d", 0),
    "slopes --scenario ngon:5 --format text":
        ("6db20daaa8049521fe200010ef2da3d77181df2eca18050f63627d70af223045", 0),
    "slopes --scenario ngon_x_p1:3 --format json":
        ("0c125a62a7976bb49f9cf6f00c763e2db60bbadaa345acf86a592354008df1aa", 0),
    "slopes --scenario ngon_x_p1:3 --format text":
        ("1c80a1c526998aa3ca336b857e4aac006e3ca9bd3ff447d8552f98ac6310b886", 0),
    "slopes --scenario tetrahedron --format json":
        ("9c23f4eda68ec41e769acb235a7680c47645d9f9faf35467a120cdbbbbc8c864", 0),
    "slopes --scenario tetrahedron --format text":
        ("bfe5ab15c5889f63b51d5f617c58b0352fb5abc2e881caa574b0ce0b3709094d", 0),
    "validate --scenario cellular:1,1 --format json":
        ("942fa59ff53ec259e97acd3d66d804cbe7358accda4b1f54c97bdc7c5ceb9374", 0),
    "validate --scenario cellular:1,1 --format text":
        ("b9f2bb9ab1a380a32fe2c88bb01d7771dd46bd8c31845c3c81f98bd69edbdb2f", 0),
    "validate --scenario cellular:1,2,1 --format json":
        ("dd77bf9431954310a43e058aba82c348ceef90382f95be3ff30057105b60c52e", 0),
    "validate --scenario cellular:1,2,1 --format text":
        ("b9f2bb9ab1a380a32fe2c88bb01d7771dd46bd8c31845c3c81f98bd69edbdb2f", 0),
    "validate --scenario cellular:1,3,3,1 --format json":
        ("7945a1d54134cdf275aaa16b9bf021982eed8b7bc6f51dabf880a222e0f7a297", 0),
    "validate --scenario cellular:1,3,3,1 --format text":
        ("b9f2bb9ab1a380a32fe2c88bb01d7771dd46bd8c31845c3c81f98bd69edbdb2f", 0),
    "validate --scenario elliptic_stratum --format json":
        ("bccefd5692271879619b09ded9da3142092dd8bb98bd02318b022ad2a54bba2c", 0),
    "validate --scenario elliptic_stratum --format text":
        ("b9f2bb9ab1a380a32fe2c88bb01d7771dd46bd8c31845c3c81f98bd69edbdb2f", 0),
    "validate --scenario good_reduction_pn:1 --format json":
        ("777057febf063b8ed5d8cbb0b36d76772c37044b9bfd70f3b1c08722763486a2", 0),
    "validate --scenario good_reduction_pn:1 --format text":
        ("b9f2bb9ab1a380a32fe2c88bb01d7771dd46bd8c31845c3c81f98bd69edbdb2f", 0),
    "validate --scenario good_reduction_pn:2 --format json":
        ("ded2ea81aee9551238124713b2eb2825b4527207d6baf4b060a3eb82ab82f0be", 0),
    "validate --scenario good_reduction_pn:2 --format text":
        ("b9f2bb9ab1a380a32fe2c88bb01d7771dd46bd8c31845c3c81f98bd69edbdb2f", 0),
    "validate --scenario good_reduction_pn:3 --format json":
        ("7040210f00ca15ec32c181c95bb82c74ffc2316ee7afef516c7f862814cc72b2", 0),
    "validate --scenario good_reduction_pn:3 --format text":
        ("b9f2bb9ab1a380a32fe2c88bb01d7771dd46bd8c31845c3c81f98bd69edbdb2f", 0),
    "validate --scenario ngon:20 --format json":
        ("efe387a34c6dd07f8f9ea4cc3b8fd85995381af5573b7e5479ec57145f0dda76", 0),
    "validate --scenario ngon:20 --format text":
        ("b9f2bb9ab1a380a32fe2c88bb01d7771dd46bd8c31845c3c81f98bd69edbdb2f", 0),
    "validate --scenario ngon:3 --format json":
        ("b8f2afa03f9b5d66121ff9dafa069fc4d28a7e6e813dfa97b95c595e3c068a5f", 0),
    "validate --scenario ngon:3 --format text":
        ("b9f2bb9ab1a380a32fe2c88bb01d7771dd46bd8c31845c3c81f98bd69edbdb2f", 0),
    "validate --scenario ngon:5 --format json":
        ("a1e3980c06b3ba919feb7088a47a1da00aa53149fd1484758bc921ee6044d1de", 0),
    "validate --scenario ngon:5 --format text":
        ("b9f2bb9ab1a380a32fe2c88bb01d7771dd46bd8c31845c3c81f98bd69edbdb2f", 0),
    "validate --scenario ngon_x_p1:3 --format json":
        ("19e64309d01d19485ddb1bbeb2da83a788998842d277cc154599bc9095f283ed", 0),
    "validate --scenario ngon_x_p1:3 --format text":
        ("b9f2bb9ab1a380a32fe2c88bb01d7771dd46bd8c31845c3c81f98bd69edbdb2f", 0),
    "validate --scenario tetrahedron --format json":
        ("11ea04e6339eeaef88e60fc40aadeaa02f11a2d2fedd56c8ac8a47fe11ef22ad", 0),
    "validate --scenario tetrahedron --format text":
        ("b9f2bb9ab1a380a32fe2c88bb01d7771dd46bd8c31845c3c81f98bd69edbdb2f", 0),
}


@pytest.mark.parametrize("argv", sorted(GOLDEN))
def test_output_digest(capsys, argv):
    code = main(argv.split(" "))
    out = capsys.readouterr().out
    assert (hashlib.sha256(out.encode()).hexdigest(), code) == GOLDEN[argv]
